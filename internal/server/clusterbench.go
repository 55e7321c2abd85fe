// Multi-node serving benchmark: stands up an in-process draid fleet
// over one shared data dir (or one shared simulated parallel FS),
// submits jobs round-robin so consistent hashing spreads them across
// members, then streams every job through randomly-assigned members so
// most reads cross the proxy — the number that comes out is fleet
// serving throughput including routing cost, the scale-out counterpart
// of RunServeBenchmark's single-node number.
package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/parfs"
	"repro/internal/shard"
)

// ClusterBenchConfig parameterizes RunClusterBenchmark.
type ClusterBenchConfig struct {
	// Nodes is the fleet size (<=0 → 3).
	Nodes int
	// Jobs are submitted round-robin across members (<=0 → 2*Nodes).
	Jobs int
	// Clients is the number of concurrent streaming readers (required).
	Clients int
	// BatchSize is samples per NDJSON batch line (<=0 → 16).
	BatchSize int
	// Passes is how many times each client streams every job (<=0 → 1).
	Passes int
	// Backend picks shared storage: "fs" (default; one shared directory,
	// the parallel-filesystem deployment shape) or "parfs" (shards ride
	// the simulated striped FS so OST contention is in the measurement).
	Backend string
	// DataDir roots the shared dir; empty uses a temp dir.
	DataDir string
}

// ClusterBenchResult reports one fleet throughput run; JSON field names
// are the BENCH_cluster.json schema.
type ClusterBenchResult struct {
	Nodes         int            `json:"nodes"`
	Jobs          int            `json:"jobs"`
	Clients       int            `json:"clients"`
	BatchSize     int            `json:"batch_size"`
	Backend       string         `json:"backend"`
	JobsPerNode   map[string]int `json:"jobs_per_node"`
	Batches       int64          `json:"batches"`
	Samples       int64          `json:"samples"`
	Bytes         int64          `json:"bytes"`
	Seconds       float64        `json:"seconds"`
	BytesPerSec   float64        `json:"bytes_per_sec"`
	BatchesPerSec float64        `json:"batches_per_sec"`
	Proxied       int64          `json:"proxied_requests"`
}

// Render formats the result for benchreport's console output.
func (r *ClusterBenchResult) Render() string {
	owners := make([]string, 0, len(r.JobsPerNode))
	for id := range r.JobsPerNode {
		owners = append(owners, id)
	}
	sort.Strings(owners)
	dist := ""
	for _, id := range owners {
		dist += fmt.Sprintf(" %s=%d", id, r.JobsPerNode[id])
	}
	return fmt.Sprintf(
		"Cluster serving throughput — %d nodes, %d jobs, %d clients, batch size %d, %s backend:\n"+
			"  ownership:%s\n"+
			"  %d batches (%d samples, %d bytes) in %.3fs — %.2f MiB/s, %.0f batches/s\n"+
			"  %d requests crossed the proxy\n",
		r.Nodes, r.Jobs, r.Clients, r.BatchSize, r.Backend, dist,
		r.Batches, r.Samples, r.Bytes, r.Seconds,
		r.BytesPerSec/(1024*1024), r.BatchesPerSec, r.Proxied)
}

// RunClusterBenchmark measures fleet streaming throughput end to end:
// submissions route to their hash owners, streams mostly cross the
// proxy, and all shard traffic lands on the shared backend.
func RunClusterBenchmark(cfg ClusterBenchConfig) (*ClusterBenchResult, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("server: clients=%d must be positive", cfg.Clients)
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2 * cfg.Nodes
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 1
	}
	if cfg.Backend == "" {
		cfg.Backend = "fs"
	}
	dataDir := cfg.DataDir
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "draid-clusterbench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}
	var newStore func(string) (shard.Store, error)
	switch cfg.Backend {
	case "fs":
	case "parfs":
		fs, err := parfs.New(parfs.DefaultConfig())
		if err != nil {
			return nil, err
		}
		// One simulated striped FS shared by the whole fleet; each job
		// mounts its own prefix, so members contend on OSTs, not names.
		newStore = func(jobID string) (shard.Store, error) {
			return shard.NewParfsSink(fs.Sub("jobs/" + jobID)), nil
		}
	default:
		return nil, fmt.Errorf("server: unknown cluster backend %q (want fs|parfs)", cfg.Backend)
	}

	fleet, err := startBenchFleet(cfg.Nodes, dataDir, newStore)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, f := range fleet {
			f.ts.Close()
			f.s.Close()
		}
	}()

	res := &ClusterBenchResult{
		Nodes: cfg.Nodes, Jobs: cfg.Jobs, Clients: cfg.Clients,
		BatchSize: cfg.BatchSize, Backend: cfg.Backend,
		JobsPerNode: make(map[string]int),
	}

	ids := make([]string, cfg.Jobs)
	for i := range ids {
		id, err := SubmitAndWait(fleet[i%len(fleet)].ts.URL, JobSpec{
			Domain: core.Climate, Name: fmt.Sprintf("cbench-%d", i), Seed: int64(i + 1),
		}, 120*time.Second)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	for _, id := range ids {
		owner := fleet[0].s.opts.Cluster.Owner(id)
		res.JobsPerNode[owner.ID]++
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		rr       atomic.Int64
	)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < cfg.Passes; p++ {
				for _, id := range ids {
					// Rotate entry nodes so ~(N-1)/N of streams proxy.
					entry := fleet[int(rr.Add(1))%len(fleet)]
					url := fmt.Sprintf("%s/v1/jobs/%s/batches?batch_size=%d", entry.ts.URL, id, cfg.BatchSize)
					batches, samples, n, err := StreamBatches(url)
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					res.Batches += batches
					res.Samples += samples
					res.Bytes += n
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()
	if firstErr != nil {
		return nil, firstErr
	}
	if res.Seconds > 0 {
		res.BytesPerSec = float64(res.Bytes) / res.Seconds
		res.BatchesPerSec = float64(res.Batches) / res.Seconds
	}
	for _, f := range fleet {
		res.Proxied += int64(f.s.metrics.clusterProxied.Value())
	}
	return res, nil
}

// benchNode is one fleet member of the benchmark harness.
type benchNode struct {
	s  *Server
	ts *httptest.Server
}

// startBenchFleet wires n members over one shared dir, resolving the
// peers-need-URLs-first cycle with handlers swapped in after creation.
func startBenchFleet(n int, dataDir string, newStore func(string) (shard.Store, error)) ([]*benchNode, error) {
	holders := make([]atomic.Pointer[http.Handler], n)
	fleet := make([]*benchNode, n)
	nodes := make([]cluster.Node, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := holders[i].Load()
			if h == nil {
				http.Error(w, "node starting", http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		fleet[i] = &benchNode{ts: ts}
		nodes[i] = cluster.Node{ID: fmt.Sprintf("b%d", i+1), URL: ts.URL}
	}
	for i := 0; i < n; i++ {
		cl, err := cluster.New(cluster.Config{
			Self:          nodes[i].ID,
			Nodes:         nodes,
			ProbeInterval: 500 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		s, err := New(Options{
			Workers: 2, ServeCacheBytes: 64 << 20, DataDir: dataDir,
			Cluster: cl, NewStore: newStore,
		})
		if err != nil {
			return nil, err
		}
		fleet[i].s = s
		h := s.Handler()
		holders[i].Store(&h)
	}
	return fleet, nil
}
