// Serving-throughput benchmark harness: stands up a draid server over
// httptest, prepares one completed job, then hammers the batch endpoint
// with N concurrent streaming clients. Shared by the Go benchmark, the
// end-to-end tests, and cmd/benchreport's BENCH_serve.json artifact, so
// future PRs track serving speed with one number.
package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/parfs"
	"repro/internal/shard"
	"repro/pkg/client"
)

// ServeBenchResult reports one throughput run; JSON field names are the
// BENCH_serve.json schema.
type ServeBenchResult struct {
	Clients       int     `json:"clients"`
	BatchSize     int     `json:"batch_size"`
	Backend       string  `json:"backend"`
	Domain        string  `json:"domain,omitempty"`
	Kind          string  `json:"kind,omitempty"`
	Wire          string  `json:"wire,omitempty"`
	Batches       int64   `json:"batches"`
	Samples       int64   `json:"samples"`
	Bytes         int64   `json:"bytes"`
	Seconds       float64 `json:"seconds"`
	BytesPerSec   float64 `json:"bytes_per_sec"`
	BatchesPerSec float64 `json:"batches_per_sec"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	// Latency percentiles from the server's telemetry histograms
	// (draid_first_batch_seconds, draid_batch_encode_seconds), estimated
	// by linear interpolation within histogram buckets — the same
	// estimate Prometheus histogram_quantile gives operators, so the
	// benchmark and the dashboards speak one language.
	FirstBatchP50Ms  float64 `json:"first_batch_p50_ms"`
	FirstBatchP99Ms  float64 `json:"first_batch_p99_ms"`
	BatchEncodeP50Us float64 `json:"batch_encode_p50_us"`
	BatchEncodeP99Us float64 `json:"batch_encode_p99_us"`
}

// Render formats the result for benchreport's console output.
func (r *ServeBenchResult) Render() string {
	workload := r.Backend + " store"
	if r.Domain != "" {
		workload += fmt.Sprintf(", %s (%s)", r.Domain, r.Kind)
	}
	if r.Wire != "" {
		workload += ", " + r.Wire + " wire"
	}
	return fmt.Sprintf(
		"Serving throughput — %d concurrent clients, batch size %d, %s:\n"+
			"  %d batches (%d samples, %d bytes) in %.3fs\n"+
			"  %.2f MiB/s, %.0f batches/s; serve cache %d hits / %d misses\n"+
			"  first batch p50 %.2fms / p99 %.2fms; batch encode p50 %.1fµs / p99 %.1fµs\n",
		r.Clients, r.BatchSize, workload, r.Batches, r.Samples, r.Bytes, r.Seconds,
		r.BytesPerSec/(1024*1024), r.BatchesPerSec, r.CacheHits, r.CacheMisses,
		r.FirstBatchP50Ms, r.FirstBatchP99Ms, r.BatchEncodeP50Us, r.BatchEncodeP99Us)
}

// ServeBenchConfig parameterizes RunServeBenchmark.
type ServeBenchConfig struct {
	// Clients is the number of concurrent streaming readers (required).
	Clients int
	// BatchSize is samples per NDJSON batch line.
	BatchSize int
	// MaxBatches caps each stream; <=0 streams the whole shard set.
	MaxBatches int
	// Passes is how many times each client streams; <=0 means once.
	Passes int
	// Backend picks the per-job shard store: "mem" (default), "fs"
	// (durable FSSink under DataDir or a temp dir), or "parfs" (the
	// simulated striped parallel FS, so stripe contention shows up in
	// the measurement).
	Backend string
	// DataDir roots the "fs" backend; empty uses a temp dir that is
	// removed afterwards.
	DataDir string
	// ColdCache disables the serving cache so every read hits the
	// store — required when the measurement is about the store (the
	// fs/mem gate): with the cache on, both backends serve ~all batches
	// from RAM and the ratio measures scheduler noise.
	ColdCache bool
	// Domain picks the streamed workload (and therefore the wire codec).
	// Empty means climate.
	Domain core.Domain
	// Wire picks the stream encoding: "ndjson" (default) or "frame".
	Wire string
}

// RunServeBenchmark measures concurrent streaming throughput: it
// submits one job for the configured domain (climate by default), waits
// for readiness, then runs Clients parallel readers each streaming up
// to MaxBatches batches of BatchSize records against the configured
// store backend.
func RunServeBenchmark(cfg ServeBenchConfig) (*ServeBenchResult, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("server: clients=%d must be positive", cfg.Clients)
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 1
	}
	if cfg.Backend == "" {
		cfg.Backend = "mem"
	}
	if cfg.Domain == "" {
		cfg.Domain = core.Climate
	}
	if cfg.Wire == "" {
		cfg.Wire = client.WireNDJSON
	}
	plug, err := domain.Lookup(cfg.Domain)
	if err != nil {
		return nil, err
	}
	opts := Options{Workers: 2, ServeCacheBytes: 64 << 20}
	if cfg.ColdCache {
		opts.ServeCacheBytes = 0
	}
	switch cfg.Backend {
	case "mem":
	case "fs":
		dir := cfg.DataDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "draid-bench-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		opts.DataDir = dir
	case "parfs":
		opts.NewStore = func(string) (shard.Store, error) {
			fs, err := parfs.New(parfs.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return shard.NewParfsSink(fs), nil
		}
	default:
		return nil, fmt.Errorf("server: unknown store backend %q (want mem|fs|parfs)", cfg.Backend)
	}
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: cfg.Domain, Name: "serve-bench", Seed: 1}, 60*time.Second)
	if err != nil {
		return nil, err
	}

	url := fmt.Sprintf("%s/v1/jobs/%s/batches?batch_size=%d&max_batches=%d", ts.URL, id, cfg.BatchSize, cfg.MaxBatches)
	res := &ServeBenchResult{Clients: cfg.Clients, BatchSize: cfg.BatchSize, Backend: cfg.Backend,
		Domain: string(cfg.Domain), Kind: plug.Codec.Kind(), Wire: cfg.Wire}
	if err := measureStreams(res, url, cfg.Wire, cfg.Clients, cfg.Passes); err != nil {
		return nil, err
	}
	cs := s.frames.Stats()
	res.CacheHits, res.CacheMisses = cs.Hits, cs.Misses
	s.fillLatencies(res)
	return res, nil
}

// fillLatencies reads the serve-latency histogram quantiles for the
// result's domain × wire off the server's telemetry registry.
func (s *Server) fillLatencies(res *ServeBenchResult) {
	fb := s.metrics.firstBatch.With(res.Domain, res.Wire)
	res.FirstBatchP50Ms = fb.Quantile(0.5) * 1e3
	res.FirstBatchP99Ms = fb.Quantile(0.99) * 1e3
	enc := s.metrics.batchEncode.With(res.Domain, res.Wire)
	res.BatchEncodeP50Us = enc.Quantile(0.5) * 1e6
	res.BatchEncodeP99Us = enc.Quantile(0.99) * 1e6
}

// measureStreams hammers one batch URL with clients×passes concurrent
// streams in the given wire format, filling res's throughput fields.
func measureStreams(res *ServeBenchResult, url, wire string, clients, passes int) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				batches, samples, n, _, err := streamConsume(url, "", wire)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				res.Batches += batches
				res.Samples += samples
				res.Bytes += n
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()
	if firstErr != nil {
		return firstErr
	}
	if res.Seconds > 0 {
		res.BytesPerSec = float64(res.Bytes) / res.Seconds
		res.BatchesPerSec = float64(res.Batches) / res.Seconds
	}
	return nil
}

// WireComparison pairs one domain's NDJSON and binary-frame runs over
// identical load, with the frame-over-NDJSON record-rate ratio — the
// number that says what the binary negotiation buys per codec.
type WireComparison struct {
	NDJSON *ServeBenchResult `json:"ndjson"`
	Frame  *ServeBenchResult `json:"frame"`
	// FrameOverNDJSON is frame records/sec divided by NDJSON
	// records/sec, measured in the same run.
	FrameOverNDJSON float64 `json:"frame_over_ndjson"`
}

// FrameCachedComparison pairs one domain's frame-wire runs with the
// serving cache off and no sidecars (decode+encode per request) and
// with it on (payload slices off the cache), over the same fs-backend
// dataset — the number that says what zero-copy serving buys.
type FrameCachedComparison struct {
	Frame       *ServeBenchResult `json:"frame"`
	FrameCached *ServeBenchResult `json:"frame_cached"`
	// CachedOverFrame is cached-frame records/sec divided by
	// encode-per-request records/sec, measured in the same run.
	CachedOverFrame float64 `json:"frame_cached_over_frame"`
}

// FrameDiskComparison pairs one domain's fully-cold frame-wire runs —
// the cache empty on every request — served by decode+encode vs by
// streaming the on-store frame sidecar (domain.Sidecar), over the same
// fs-backend dataset. The ratio says what the disk tier buys when
// nothing is warm.
type FrameDiskComparison struct {
	Encode *ServeBenchResult `json:"encode"`
	Disk   *ServeBenchResult `json:"disk"`
	// DiskOverEncode is sidecar-served records/sec divided by cold
	// decode+encode records/sec, measured in the same run.
	DiskOverEncode float64 `json:"frame_disk_over_encode"`
}

// ServeBenchReport pairs a same-process mem-backend and fs-backend run;
// it is the BENCH_serve.json schema. The CI gate compares FSOverMem —
// how much of the in-memory serving rate survives the durable store —
// because that ratio is a property of the code path, not of how fast
// the machine running the benchmark happens to be.
type ServeBenchReport struct {
	Mem *ServeBenchResult `json:"mem"`
	FS  *ServeBenchResult `json:"fs"`
	// FSOverMem is samples/sec with the fs backend divided by
	// samples/sec with the mem backend, measured in the same run.
	FSOverMem float64 `json:"fs_over_mem"`
	// Codecs is the per-codec × per-wire throughput dimension: one
	// mem-backend NDJSON run and one frame run per registered domain,
	// keyed by domain name. Informational — the regression gate stays
	// on FSOverMem.
	Codecs map[string]*WireComparison `json:"codecs,omitempty"`
	// FrameCached is the zero-copy dimension: fusion frame streams off
	// the fs backend encoded per request vs sliced off the serving
	// cache. Gated by cmd/benchreport -compare on CachedOverFrame.
	FrameCached *FrameCachedComparison `json:"frame_cached,omitempty"`
	// FrameDisk is the disk-tier dimension: fully-cold frame streams off
	// the fs backend served from shard sidecars vs by decode+encode,
	// keyed by domain name. Gated by cmd/benchreport -compare on
	// DiskOverEncode once the baseline carries it.
	FrameDisk map[string]*FrameDiskComparison `json:"frame_disk,omitempty"`
}

// Render formats both runs, the gate ratio, and the per-codec sweep.
func (r *ServeBenchReport) Render() string {
	out := r.Mem.Render() + r.FS.Render() +
		fmt.Sprintf("fs/mem serve-throughput ratio: %.3f\n", r.FSOverMem)
	if len(r.Codecs) > 0 {
		out += "per-codec wire throughput (mem backend):\n"
		names := make([]string, 0, len(r.Codecs))
		for name := range r.Codecs {
			names = append(names, name)
		}
		sort.Strings(names)
		rate := func(res *ServeBenchResult) float64 {
			if res == nil || res.Seconds == 0 {
				return 0
			}
			return float64(res.Samples) / res.Seconds
		}
		for _, name := range names {
			c := r.Codecs[name]
			out += fmt.Sprintf("  %-12s %-18s ndjson %8.0f rec/s  frame %8.0f rec/s  frame/ndjson %.2fx\n",
				name, "("+c.NDJSON.Kind+")", rate(c.NDJSON), rate(c.Frame), c.FrameOverNDJSON)
		}
	}
	if fc := r.FrameCached; fc != nil {
		rate := func(res *ServeBenchResult) float64 {
			if res == nil || res.Seconds == 0 {
				return 0
			}
			return float64(res.Samples) / res.Seconds
		}
		out += fmt.Sprintf("encoded-frame cache (%s, %s backend):\n"+
			"  per-request encode %8.0f rec/s  cached slices %8.0f rec/s  cached/encode %.2fx\n"+
			"  encode p99 %.1fµs -> %.1fµs\n",
			fc.Frame.Domain, fc.Frame.Backend, rate(fc.Frame), rate(fc.FrameCached),
			fc.CachedOverFrame, fc.Frame.BatchEncodeP99Us, fc.FrameCached.BatchEncodeP99Us)
	}
	if len(r.FrameDisk) > 0 {
		rate := func(res *ServeBenchResult) float64 {
			if res == nil || res.Seconds == 0 {
				return 0
			}
			return float64(res.Samples) / res.Seconds
		}
		out += "frame sidecar disk tier (cold cache, fs backend):\n"
		names := make([]string, 0, len(r.FrameDisk))
		for name := range r.FrameDisk {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fd := r.FrameDisk[name]
			out += fmt.Sprintf("  %-12s cold encode %8.0f rec/s  sidecar stream %8.0f rec/s  disk/encode %.2fx\n",
				name, rate(fd.Encode), rate(fd.Disk), fd.DiskOverEncode)
		}
	}
	return out
}

// RunServeComparison runs the serve benchmark against the mem and fs
// backends with identical load, yielding the same-run relative metric
// the regression gate consumes. Each backend runs serveCompareRounds
// times interleaved and the gate ratio uses the median samples/sec of
// each side — a single short run's ratio swings ±15% with scheduler
// noise, which would eat the whole regression budget.
func RunServeComparison(cfg ServeBenchConfig) (*ServeBenchReport, error) {
	// Cold cache on both sides: the gate is about the store code path,
	// and a warm cache hides it behind RAM reads.
	cfg.ColdCache = true
	var memRates, fsRates []float64
	rep := &ServeBenchReport{}
	for round := 0; round < serveCompareRounds; round++ {
		memCfg := cfg
		memCfg.Backend = "mem"
		mem, err := RunServeBenchmark(memCfg)
		if err != nil {
			return nil, err
		}
		fsCfg := cfg
		fsCfg.Backend = "fs"
		fs, err := RunServeBenchmark(fsCfg)
		if err != nil {
			return nil, err
		}
		if mem.Seconds > 0 {
			memRates = append(memRates, float64(mem.Samples)/mem.Seconds)
		}
		if fs.Seconds > 0 {
			fsRates = append(fsRates, float64(fs.Samples)/fs.Seconds)
		}
		rep.Mem, rep.FS = mem, fs // keep the last rounds' detail for the report
	}
	memRate, fsRate := median(memRates), median(fsRates)
	if memRate > 0 {
		rep.FSOverMem = fsRate / memRate
	}
	// Per-codec × per-wire dimension: every registered domain streams
	// against the mem backend in both wire formats, so codec-encode
	// regressions are visible per wire kind (and the frame format's win
	// is recorded) rather than folded into the climate-only gate
	// number. Climate deliberately runs again here even though rep.Mem
	// measured it: the gate rounds are cold-cache (store-bound) while
	// this sweep is warm-cache (codec-bound), and the sweep's numbers
	// must be mutually comparable.
	rep.Codecs = make(map[string]*WireComparison, len(domain.Plugins()))
	for _, plug := range domain.Plugins() {
		codecCfg := cfg
		codecCfg.Passes = 2
		codecCfg.Domain = plug.Domain
		cmp, err := runWireComparison(codecCfg)
		if err != nil {
			return nil, fmt.Errorf("codec sweep %s: %w", plug.Domain, err)
		}
		rep.Codecs[string(plug.Domain)] = cmp
	}
	// Zero-copy dimension: what the serving cache buys over per-request
	// encoding, on the durable backend.
	fcCfg := cfg
	fcCfg.Passes = 2
	fc, err := RunFrameCachedComparison(fcCfg)
	if err != nil {
		return nil, fmt.Errorf("frame-cached sweep: %w", err)
	}
	rep.FrameCached = fc
	// Disk-tier dimension: fully-cold frame streams served from shard
	// sidecars vs decode+encode. Fusion and materials bracket the codec
	// cost spectrum (heaviest tensor encode vs graph records).
	rep.FrameDisk = make(map[string]*FrameDiskComparison, 2)
	for _, dom := range []core.Domain{core.Fusion, core.Materials} {
		fdCfg := cfg
		fdCfg.Passes = 2
		fdCfg.Domain = dom
		fd, err := RunFrameDiskComparison(fdCfg)
		if err != nil {
			return nil, fmt.Errorf("frame-disk sweep %s: %w", dom, err)
		}
		rep.FrameDisk[string(dom)] = fd
	}
	return rep, nil
}

// RunFrameCachedComparison measures one domain's frame-wire throughput
// with the serving cache off and on, over the same fs-backend dataset:
// two servers share one data dir (the second replays the job log), so
// the only difference between the sides is per-request shard decode
// and tensor encoding vs slicing cached payload bytes. The cached side
// is pre-filled, so no measured stream pays a fill. Fusion is the
// default workload — its windowed signal tensors have the largest
// per-record encode cost, so the ratio tracks the win where it matters
// most. Like the fs/mem gate, the ratio is the median of
// frameCachedRounds interleaved rounds.
func RunFrameCachedComparison(cfg ServeBenchConfig) (*FrameCachedComparison, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("server: clients=%d must be positive", cfg.Clients)
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 1
	}
	if cfg.Domain == "" {
		cfg.Domain = core.Fusion
	}
	plug, err := domain.Lookup(cfg.Domain)
	if err != nil {
		return nil, err
	}
	dir := cfg.DataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "draid-bench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// The encode side has no cache and DisableFrameStore, keeping it a
	// true per-request decode+encode reference: with either on it would
	// slice cached or on-store payloads and the ratio would measure the
	// wrong thing.
	encSrv, err := New(Options{Workers: 2, DataDir: dir, DisableFrameStore: true})
	if err != nil {
		return nil, err
	}
	defer encSrv.Close()
	encTS := httptest.NewServer(encSrv.Handler())
	defer encTS.Close()
	id, err := SubmitAndWait(encTS.URL, JobSpec{Domain: cfg.Domain, Name: "frame-cache-bench", Seed: 1}, 60*time.Second)
	if err != nil {
		return nil, err
	}
	// The cached server starts after the job completes so its job-log
	// replay sees the finished shard set.
	cachedSrv, err := New(Options{Workers: 2, ServeCacheBytes: 256 << 20, DataDir: dir})
	if err != nil {
		return nil, err
	}
	defer cachedSrv.Close()
	cachedTS := httptest.NewServer(cachedSrv.Handler())
	defer cachedTS.Close()

	urlFor := func(base string) string {
		return fmt.Sprintf("%s/v1/jobs/%s/batches?batch_size=%d&max_batches=%d", base, id, cfg.BatchSize, cfg.MaxBatches)
	}
	sides := []struct {
		s  *Server
		ts *httptest.Server
	}{{encSrv, encTS}, {cachedSrv, cachedTS}}
	// Warm-up: fills the cache on the cached side, so no measured
	// stream pays a fill, and surfaces stream errors on both sides.
	for _, side := range sides {
		if _, _, _, _, err := streamConsume(urlFor(side.ts.URL), "", domain.WireFrame); err != nil {
			return nil, err
		}
	}

	cmp := &FrameCachedComparison{}
	var encRates, cachedRates []float64
	for round := 0; round < frameCachedRounds; round++ {
		for i, side := range sides {
			res := &ServeBenchResult{Clients: cfg.Clients, BatchSize: cfg.BatchSize, Backend: "fs",
				Domain: string(cfg.Domain), Kind: plug.Codec.Kind(), Wire: domain.WireFrame}
			before := side.s.frames.Stats()
			if err := measureStreams(res, urlFor(side.ts.URL), domain.WireFrame, cfg.Clients, cfg.Passes); err != nil {
				return nil, err
			}
			cs := side.s.frames.Stats()
			res.CacheHits, res.CacheMisses = cs.Hits-before.Hits, cs.Misses-before.Misses
			side.s.fillLatencies(res)
			rate := 0.0
			if res.Seconds > 0 {
				rate = float64(res.Samples) / res.Seconds
			}
			if i == 0 {
				encRates = append(encRates, rate)
				cmp.Frame = res
			} else {
				cachedRates = append(cachedRates, rate)
				cmp.FrameCached = res
			}
		}
	}
	if hits := cachedSrv.frames.Stats().Hits; hits == 0 {
		return nil, fmt.Errorf("server: frame cache took no hits during cached rounds")
	}
	encRate, cachedRate := median(encRates), median(cachedRates)
	if encRate > 0 {
		cmp.CachedOverFrame = cachedRate / encRate
	}
	return cmp, nil
}

// frameCachedRounds is how many interleaved encode/cached rounds feed
// the frame-cached ratio's median.
const frameCachedRounds = 3

// RunFrameDiskComparison measures one domain's fully-cold frame-wire
// throughput — the serving cache disabled on both sides, so every
// request goes to the store — served by per-request decode+encode
// vs by streaming the shard's frame sidecar, over the same fs-backend
// dataset. The job is built on the disk side (which writes sidecars at
// completion); the encode side replays the same job log with the frame
// store disabled, so the only difference between the sides is how cold
// bytes reach the wire. Like the other gates, the ratio is the median
// of frameDiskRounds interleaved rounds.
func RunFrameDiskComparison(cfg ServeBenchConfig) (*FrameDiskComparison, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("server: clients=%d must be positive", cfg.Clients)
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 1
	}
	if cfg.Domain == "" {
		cfg.Domain = core.Fusion
	}
	plug, err := domain.Lookup(cfg.Domain)
	if err != nil {
		return nil, err
	}
	dir := cfg.DataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "draid-bench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// The job builds on the disk side so completion writes the sidecars
	// the measured streams will serve from.
	diskSrv, err := New(Options{Workers: 2, DataDir: dir})
	if err != nil {
		return nil, err
	}
	defer diskSrv.Close()
	diskTS := httptest.NewServer(diskSrv.Handler())
	defer diskTS.Close()
	id, err := SubmitAndWait(diskTS.URL, JobSpec{Domain: cfg.Domain, Name: "frame-disk-bench", Seed: 1}, 60*time.Second)
	if err != nil {
		return nil, err
	}
	// The encode side starts after the job completes so its job-log
	// replay sees the finished shard set; DisableFrameStore keeps it a
	// true cold decode+encode reference.
	encSrv, err := New(Options{Workers: 2, DataDir: dir, DisableFrameStore: true})
	if err != nil {
		return nil, err
	}
	defer encSrv.Close()
	encTS := httptest.NewServer(encSrv.Handler())
	defer encTS.Close()

	urlFor := func(base string) string {
		return fmt.Sprintf("%s/v1/jobs/%s/batches?batch_size=%d&max_batches=%d", base, id, cfg.BatchSize, cfg.MaxBatches)
	}
	sides := []struct {
		s  *Server
		ts *httptest.Server
	}{{encSrv, encTS}, {diskSrv, diskTS}}
	// One warm-up stream per side: with the cache off nothing warms,
	// but this surfaces stream errors before the measured rounds.
	for _, side := range sides {
		if _, _, _, _, err := streamConsume(urlFor(side.ts.URL), "", domain.WireFrame); err != nil {
			return nil, err
		}
	}

	cmp := &FrameDiskComparison{}
	var encRates, diskRates []float64
	for round := 0; round < frameDiskRounds; round++ {
		for i, side := range sides {
			res := &ServeBenchResult{Clients: cfg.Clients, BatchSize: cfg.BatchSize, Backend: "fs",
				Domain: string(cfg.Domain), Kind: plug.Codec.Kind(), Wire: domain.WireFrame}
			before := side.s.frames.Stats()
			if err := measureStreams(res, urlFor(side.ts.URL), domain.WireFrame, cfg.Clients, cfg.Passes); err != nil {
				return nil, err
			}
			cs := side.s.frames.Stats()
			res.CacheHits, res.CacheMisses = cs.Hits-before.Hits, cs.Misses-before.Misses
			side.s.fillLatencies(res)
			rate := 0.0
			if res.Seconds > 0 {
				rate = float64(res.Samples) / res.Seconds
			}
			if i == 0 {
				encRates = append(encRates, rate)
				cmp.Encode = res
			} else {
				diskRates = append(diskRates, rate)
				cmp.Disk = res
			}
		}
	}
	if hits := diskSrv.metrics.frameStoreHits.Value(); hits == 0 {
		return nil, fmt.Errorf("server: no frame stream was sidecar-served during disk rounds")
	}
	encRate, diskRate := median(encRates), median(diskRates)
	if encRate > 0 {
		cmp.DiskOverEncode = diskRate / encRate
	}
	return cmp, nil
}

// frameDiskRounds is how many interleaved encode/disk rounds feed the
// disk-tier ratio's median.
const frameDiskRounds = 3

// runWireComparison measures one domain's NDJSON and frame throughput
// against the *same* server and the same completed job, so the ratio
// compares wire encodings over an identical dataset — some pipelines'
// shard layouts vary run to run, and standing up a fresh job per wire
// would fold that synthesis noise into the tracked ratio.
func runWireComparison(cfg ServeBenchConfig) (*WireComparison, error) {
	plug, err := domain.Lookup(cfg.Domain)
	if err != nil {
		return nil, err
	}
	s, err := New(Options{Workers: 2, ServeCacheBytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: cfg.Domain, Name: "wire-bench", Seed: 1}, 60*time.Second)
	if err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/v1/jobs/%s/batches?batch_size=%d&max_batches=%d", ts.URL, id, cfg.BatchSize, cfg.MaxBatches)

	cmp := &WireComparison{}
	for _, wire := range domain.Wires() {
		// One warm-up pass per wire so neither side pays the cache
		// fill.
		if _, _, _, _, err := streamConsume(url, "", wire); err != nil {
			return nil, err
		}
		res := &ServeBenchResult{Clients: cfg.Clients, BatchSize: cfg.BatchSize, Backend: "mem",
			Domain: string(cfg.Domain), Kind: plug.Codec.Kind(), Wire: wire}
		// Cache counters are server-lifetime; record this wire's delta,
		// not the accumulated total of warm-up and earlier wires.
		before := s.frames.Stats()
		if err := measureStreams(res, url, wire, cfg.Clients, cfg.Passes); err != nil {
			return nil, err
		}
		cs := s.frames.Stats()
		res.CacheHits, res.CacheMisses = cs.Hits-before.Hits, cs.Misses-before.Misses
		// Histogram quantiles are server-lifetime, but the warm-up adds
		// only one stream per wire against Clients×Passes measured ones —
		// and the per-wire labels keep the two wires' samples apart.
		s.fillLatencies(res)
		if wire == domain.WireFrame {
			cmp.Frame = res
		} else {
			cmp.NDJSON = res
		}
	}
	if cmp.NDJSON.Seconds > 0 && cmp.Frame.Seconds > 0 {
		nd := float64(cmp.NDJSON.Samples) / cmp.NDJSON.Seconds
		fr := float64(cmp.Frame.Samples) / cmp.Frame.Seconds
		if nd > 0 {
			cmp.FrameOverNDJSON = fr / nd
		}
	}
	return cmp, nil
}

// serveCompareRounds is how many interleaved mem/fs rounds feed the
// gate's median. Five rounds put the median's spread well inside the
// 20% regression budget (single runs swing ±15%).
const serveCompareRounds = 5

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// SubmitAndWait posts a job spec to a running draid server and polls it
// until done, returning the job ID — a thin wrapper over the pkg/client
// SDK kept for the benchmark harness and tests.
func SubmitAndWait(baseURL string, spec JobSpec, timeout time.Duration) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	c := client.New(baseURL, client.WithPollInterval(5*time.Millisecond))
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		return "", err
	}
	done, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		return "", err
	}
	return done.ID, nil
}

// BatchWire is the client-side union of every wire kind's batch
// payload; it lives in pkg/client (the supported SDK) and is aliased
// here for the serving tests.
type BatchWire = client.BatchWire

// StreamBatches consumes one NDJSON batch stream, validating every
// line, and returns (batches, samples, bytes).
func StreamBatches(url string) (batches, samples, n int64, err error) {
	batches, samples, n, _, err = StreamBatchesFrom(url, "")
	return batches, samples, n, err
}

// StreamBatchesFrom streams like StreamBatches but resumes from the
// given cursor (empty starts at the beginning) and returns the cursor
// after the last batch received — the value a reconnecting client
// passes back to continue the stream.
func StreamBatchesFrom(url, cursor string) (batches, samples, n int64, last string, err error) {
	return streamConsume(url, cursor, client.WireNDJSON)
}

// streamConsume drains one batch stream through the SDK in the given
// wire format, with automatic resume disabled so benchmarks and tests
// see transport failures instead of silent reconnects.
func streamConsume(url, cursor, wire string) (batches, samples, n int64, last string, err error) {
	last = cursor
	st, err := client.OpenStreamURL(context.Background(), nil, url, cursor, wire, -1)
	if err != nil {
		return 0, 0, 0, last, err
	}
	defer st.Close()
	batches, samples, n, err = st.Drain()
	if c := st.Cursor(); c != "" {
		last = c
	}
	return batches, samples, n, last, err
}
