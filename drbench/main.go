// Command drbench is the repository's benchmark. It starts draid, built
// from the checkout under test, as a separate process with a data dir,
// one non-admin tenant and one worker per core, drives it from this
// single load-generator process over at most nproc connections, checks
// every output, and prints the end-to-end metrics by name with their
// units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see README.md):
//
//	build    closed loop: submit medium jobs, wait for done, read the first batch
//	epoch    closed loop: drain full epochs of fixture F over frames and
//	         NDJSON at once; gates the frame client
//	shuffle  open loop: short frame streams at seeded cursors of F, rate ladder
//
// Modes:
//
//	--trace 0        timed run; prints the end-to-end metrics
//	--trace 1        traced run; replays the layers in-process with spans,
//	                 drives every workload with client spans, prints the
//	                 per-layer metrics and the tracing overhead
//	--workload all   timed runs of build, epoch and shuffle, with every named metric
//	--selfcheck      sensitivity self-check against injected slowdowns
//
// Run it through run.sh, which builds both binaries first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"first_batch_p50_ms", "ms"},
	{"first_batch_p90_ms", "ms"},
}

// workloadDef is a workload and the draid flags it runs with.
type workloadDef struct {
	name  string
	flags []string
}

var workloadDefs = []workloadDef{
	{"build", []string{"-max-jobs", "8"}},
	{"epoch", nil},
	// At most a fifth of F's ~19 MB of frames.
	{"shuffle", []string{"-serve-cache-mb", "3"}},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// workloadOut is what one drive of a workload measured.
type workloadOut struct {
	e2e     map[string]float64 // gated end-to-end values (ops_per_s, first_batch_*)
	named   map[string]metric  // the workload's own named metrics
	samples map[string][]float64
	primary float64 // the value the tracing overhead compares
}

func newWorkloadOut() *workloadOut {
	return &workloadOut{e2e: map[string]float64{}, named: map[string]metric{}, samples: map[string][]float64{}}
}

// bench is one invocation's state.
type bench struct {
	draid, out, work string
	seed             int64
	seconds          float64
	conns            int
	extra            []string
	tr               *tracer

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	failures          []string
}

// setupReps is how many times a run sets fixture F up; setup_s is the
// median of their times.
const setupReps = 3

// op counts one checked operation; a non-nil err is a failure.
func (b *bench) op(err error) bool {
	b.attempted.Add(1)
	if err == nil {
		return true
	}
	b.fail(err)
	return false
}

// fail records a failure of an operation already counted by op.
func (b *bench) fail(err error) {
	b.failed.Add(1)
	b.failMu.Lock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, err.Error())
		fmt.Fprintln(os.Stderr, "drbench: check failed:", err)
	}
	b.failMu.Unlock()
}

func (b *bench) window() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// fixture is what a workload's set-up leaves for its load: F's stream
// references (epoch, shuffle) or the medium specs' counts (build).
type fixture struct {
	jobs   []*jobRef
	counts map[core.Domain]buildCounts
}

// drive runs one workload's load against d for window.
func (b *bench) drive(ctx context.Context, w workloadDef, d *deployment, fx fixture, window time.Duration, ladder bool) (*workloadOut, error) {
	switch w.name {
	case "build":
		return b.runBuild(ctx, d, window, fx.counts)
	case "epoch":
		return b.runEpoch(ctx, d, fx.jobs, window)
	case "shuffle":
		return b.runShuffle(ctx, d, fx.jobs, b.conns, window, ladder)
	}
	return nil, fmt.Errorf("unknown workload %q", w.name)
}

// result is the full record of one run, written under the output dir.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Host      hostInfo             `json:"host"`
	Baselines map[string]float64   `json:"baselines"`
	SetupS    []float64            `json:"setup_s_samples"`
	Metrics   map[string]metric    `json:"metrics"`
	Named     map[string]metric    `json:"named"`
	Server    map[string]float64   `json:"server_counts,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
}

func main() {
	var (
		draid     = flag.String("draid", "", "draid binary under test")
		out       = flag.String("out", ".bench_build", "directory for run state, results and traces")
		workload  = flag.String("workload", "", "build | epoch | shuffle | all")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 15, "measurement window per run, seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed run")
		selfcheck = flag.Bool("selfcheck", false, "run the sensitivity self-check")
	)
	flag.Parse()
	if *draid == "" || (*workload == "" && !*selfcheck) {
		fmt.Fprintln(os.Stderr, "usage: drbench -draid <binary> --workload build|epoch|shuffle|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{draid: *draid, out: *out, seed: *seed, seconds: *seconds, conns: runtime.NumCPU()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case *selfcheck:
		err = b.selfCheck(ctx)
	case *workload == "all":
		err = b.suite(ctx)
	case *trace == 1:
		err = b.single(ctx, *workload, true)
	default:
		err = b.single(ctx, *workload, false)
	}
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "drbench:", err)
		os.Exit(1)
	}
}

// single is one run of one workload, timed or traced, bounded so it
// always ends well inside three minutes.
func (b *bench) single(ctx context.Context, name string, traced bool) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	ctx, cancel := context.WithTimeout(ctx, 165*time.Second)
	defer cancel()
	// In-process work does not watch ctx; past the deadline, stop draid
	// and give up rather than overrun the three minutes a run may take.
	watchdog := time.AfterFunc(175*time.Second, func() {
		stopAll()
		fmt.Fprintln(os.Stderr, "drbench: run exceeded 175s")
		os.Exit(1)
	})
	defer watchdog.Stop()
	var res *result
	var err error
	if traced {
		res, err = b.tracedRun(ctx, w)
	} else {
		res, err = b.timedRun(ctx, w)
	}
	if err != nil {
		return err
	}
	return b.finish(res)
}

// newWork makes this run's private state directory.
func (b *bench) newWork(name string) error {
	b.work = filepath.Join(b.out, "run", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
	return os.MkdirAll(b.work, 0o755)
}

// timedRun is the untraced measurement: set up (setupReps times; F for
// epoch and shuffle, the reference counts for build), drive the
// workload for the window, verify the audit ledger, and collect the
// end-to-end metrics. The workload runs on a fresh draid over the
// set-up's data dir, so peak_rss_mb holds neither F's build nor heap
// the set-up process had yet to return to the OS.
func (b *bench) timedRun(ctx context.Context, w workloadDef) (*result, error) {
	if err := b.newWork(w.name); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	res := b.newResult(w.name, false)
	flags := append(append([]string(nil), w.flags...), b.extra...)
	var (
		d     *deployment
		fx    fixture
		setup []float64
		err   error
	)
	if w.name == "build" {
		d, fx.counts, setup, err = b.setupBuild(ctx, w.name, flags, setupReps)
	} else {
		d, fx.jobs, setup, err = b.setupFixture(ctx, w.name, flags, setupReps)
	}
	if err != nil {
		return nil, err
	}
	res.SetupS = setup
	setupRSS, err := d.peakRSSMB()
	if err != nil {
		d.stop()
		return nil, err
	}
	d.stop()
	b.op(d.exitErr())
	if d, err = startDraid(ctx, b.draid, d.dir, d.flags); err != nil {
		return nil, err
	}
	defer d.stop()
	before, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	wo, err := b.drive(ctx, w, d, fx, b.window(), true)
	if err != nil {
		return nil, err
	}
	after, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := b.verifyAudit(ctx, d); err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.stop()
	b.op(d.exitErr())
	b.endBaselines(res)

	res.Metrics["setup_s"] = metric{median(setup), "s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	for _, m := range e2eMetrics[2:] {
		res.Metrics[m.name] = metric{wo.e2e[m.name], m.unit}
	}
	for k, v := range wo.named {
		res.Named[k] = v
	}
	res.Named["setup_s"] = res.Metrics["setup_s"]
	res.Named["peak_rss_mb"] = res.Metrics["peak_rss_mb"]
	res.Named["setup_peak_rss_mb"] = metric{setupRSS, "MB"}
	res.Server = serverCounts(before, after)
	res.Samples = wo.samples
	return res, nil
}

func (b *bench) newResult(name string, traced bool) *result {
	res := &result{
		Workload: name, Seed: b.seed, Seconds: b.seconds, Trace: traced,
		Host:      readHost(b.work),
		Baselines: map[string]float64{"cpu_baseline_start_ms": cpuBaselineMS()},
		Metrics:   map[string]metric{}, Named: map[string]metric{},
	}
	if us, err := fsyncP50US(b.work); err == nil {
		res.Baselines["fsync_p50_us"] = us
	}
	if r, err := loopbackMBps(); err == nil {
		res.Baselines["loopback_MBps"] = r
	}
	res.Baselines["cpu_ticks_start"], res.Baselines["steal_ticks_start"] = cpuTicks()
	return res
}

// endBaselines takes the end-of-run CPU baseline and the share of the
// host's CPU time stolen by its hypervisor during the run.
func (b *bench) endBaselines(res *result) {
	res.Baselines["cpu_baseline_end_ms"] = cpuBaselineMS()
	total, steal := cpuTicks()
	res.Baselines["steal_pct"] = 100 * ratio(steal-res.Baselines["steal_ticks_start"], total-res.Baselines["cpu_ticks_start"])
	delete(res.Baselines, "cpu_ticks_start")
	delete(res.Baselines, "steal_ticks_start")
}

// serverCounts turns two /metrics scrapes into the server-side counts
// over the workload: cache and sidecar hit ratios, evictions, ledger
// records per fsync and in-band serve errors.
func serverCounts(before, after map[string]float64) map[string]float64 {
	delta := func(name string) float64 { return after[name] - before[name] }
	hit := func(h, m string) float64 { return ratio(delta(h), delta(h)+delta(m)) }
	return map[string]float64{
		"frame_cache_hit_ratio":   hit("draid_frame_cache_hits_total", "draid_frame_cache_misses_total"),
		"shard_cache_hit_ratio":   hit("draid_shard_cache_hits_total", "draid_shard_cache_misses_total"),
		"frame_store_hit_ratio":   hit("draid_frame_store_hits_total", "draid_frame_store_misses_total"),
		"cache_evictions":         delta("draid_frame_cache_evictions_total") + delta("draid_shard_cache_evictions_total"),
		"ledger_records_per_sync": ratio(delta("draid_ledger_records_total"), delta("draid_ledger_syncs_total")),
		"serve_errors":            delta("draid_serve_errors_total"),
	}
}

// finish files the run's record and prints the result line last.
func (b *bench) finish(res *result) error {
	res.Attempted = b.attempted.Load()
	res.Failed = b.failed.Load()
	if _, err := b.record(res); err != nil {
		return err
	}
	return b.printLine(res.Metrics)
}

// record writes a run's full record (host block, baselines, every
// metric and sample) under the output dir and prints the
// human-readable report.
func (b *bench) record(res *result) (string, error) {
	b.failMu.Lock()
	res.Failures = append([]string(nil), b.failures...)
	b.failMu.Unlock()
	fr := 0.0
	if res.Attempted > 0 {
		fr = float64(res.Failed) / float64(res.Attempted)
	}
	res.Named["fail_ratio"] = metric{fr, "ratio"}
	if err := os.MkdirAll(filepath.Join(b.out, "results"), 0o755); err != nil {
		return "", err
	}
	kind := "timed"
	if res.Trace {
		kind = "traced"
	}
	path := filepath.Join(b.out, "results", fmt.Sprintf("%s-%s-seed%d-%d.json", res.Workload, kind, res.Seed, time.Now().UnixNano()))
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return "", err
	}
	host, _ := json.Marshal(map[string]any{"host": res.Host, "baselines": res.Baselines})
	fmt.Printf("host %s\n", host)
	fmt.Printf("workload %s seed %d window %gs, %d operations checked, %d failed; record %s\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed, path)
	printTable("named", res.Named)
	if len(res.Server) > 0 {
		counts := map[string]metric{}
		for k, v := range res.Server {
			counts[k] = metric{v, "count"}
		}
		printTable("server", counts)
	}
	return path, nil
}

func printTable(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-8s %-44s %14.4f %s\n", title, n, ms[n].Value, ms[n].Unit)
	}
}
