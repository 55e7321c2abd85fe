package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// namedMetrics are each workload's own end-to-end metrics, by the
// names the suite and the self-check report.
var namedMetrics = map[string][]string{
	"build":   {"setup_s", "fail_ratio", "peak_rss_mb", "jobs_per_s", "submit_to_done_p50_ms", "submit_to_done_p90_ms", "submit_to_first_batch_p50_ms"},
	"epoch":   {"setup_s", "fail_ratio", "peak_rss_mb", "epoch_frame_MBps", "epoch_ndjson_MBps"},
	"shuffle": {"setup_s", "fail_ratio", "peak_rss_mb", "first_batch_p50_ms", "first_batch_p90_ms", "max_rps"},
}

// timedRecord runs one timed run and files its record, with its own
// checked-operation counts.
func (b *bench) timedRecord(ctx context.Context, w workloadDef) (*result, error) {
	a0, f0 := b.attempted.Load(), b.failed.Load()
	res, err := b.timedRun(ctx, w)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = b.attempted.Load()-a0, b.failed.Load()-f0
	if _, err := b.record(res); err != nil {
		return nil, err
	}
	return res, nil
}

// suite runs the build, epoch and shuffle workloads and prints every
// named metric.
func (b *bench) suite(ctx context.Context) error {
	all := map[string]metric{}
	for _, w := range workloadDefs {
		res, err := b.timedRecord(ctx, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for _, n := range namedMetrics[w.name] {
			all[w.name+"."+n] = res.Named[n]
		}
		if p99, ok := res.Named["first_batch_p99_ms"]; ok {
			fmt.Printf("%s first_batch_p99_ms %.4f ms (printed, not a metric: it does not repeat)\n", w.name, p99.Value)
		}
	}
	printTable("suite", all)
	return b.printLine(all)
}

// printLine prints the result line and fails when any check failed.
func (b *bench) printLine(metrics map[string]metric) error {
	a, f := b.attempted.Load(), b.failed.Load()
	line, err := json.Marshal(map[string]any{
		"correct":   f == 0 && a > 0,
		"attempted": max(a, 1),
		"failed":    f,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if f > 0 {
		return fmt.Errorf("%d of %d output checks failed", f, a)
	}
	return nil
}

// selfCheckRuns is how many runs each arm of the self-check makes.
const selfCheckRuns = 3

// benchBound is one end-to-end metric's entry in BENCHMARK.json.
type benchBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) (map[string]benchBound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []benchBound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]benchBound{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// worsening is how much cur is worse than base, as a share of base.
func worsening(better string, base, cur float64) float64 {
	if better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// selfCheck shows the gate works: runs of a tree with an injected
// slowdown (existing draid flags only) must read worse than the bound,
// and two sets of clean runs must agree within every bound.
//
//   - shuffle with -ledger-flush 10ms must worsen first_batch_p50_ms;
//   - epoch with -serve-max-kbps at half the clean frame rate must
//     worsen ops_per_s, the frame client's epochs per second;
//   - clean against clean must pass on every end-to-end metric.
func (b *bench) selfCheck(ctx context.Context) error {
	const n = selfCheckRuns
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	seed0 := b.seed
	run := func(name string, i int, extra []string) (*result, error) {
		w, _ := lookupWorkload(name)
		b.extra, b.seed = extra, seed0+int64(i)
		res, err := b.timedRecord(ctx, w)
		b.extra, b.seed = nil, seed0
		if err != nil {
			return nil, fmt.Errorf("%s %v: %w", name, extra, err)
		}
		fmt.Printf("selfcheck %-8s %-28v seed %d: %v\n", name, extra, seed0+int64(i), res.Metrics)
		return res, nil
	}
	med := func(rs []*result, m string, named bool) float64 {
		var xs []float64
		for _, r := range rs {
			if named {
				xs = append(xs, r.Named[m].Value)
			} else {
				xs = append(xs, r.Metrics[m].Value)
			}
		}
		return median(xs)
	}
	out := map[string]metric{}
	ok := true
	verdict := func(label string, want bool, got bool) {
		pass := want == got
		ok = ok && pass
		v := 0.0
		if pass {
			v = 1
		}
		out["verdict."+label] = metric{v, "bool"}
	}
	clean := func(name string, a, c []*result) {
		for _, m := range e2eMetrics {
			bd := bounds[m.name]
			wv := worsening(bd.Better, med(a, m.name, false), med(c, m.name, false))
			out["clean_pair."+name+"."+m.name] = metric{wv * 100, "%"}
			verdict("clean_pair_passes."+name+"."+m.name, true, wv <= bd.Bound)
		}
	}

	var sa, ss, sc []*result
	for i := 0; i < n; i++ {
		for _, arm := range []struct {
			dst   *[]*result
			extra []string
		}{{&sa, nil}, {&ss, []string{"-ledger-flush", "10ms"}}, {&sc, nil}} {
			r, err := run("shuffle", i, arm.extra)
			if err != nil {
				return err
			}
			*arm.dst = append(*arm.dst, r)
		}
	}
	bd := bounds["first_batch_p50_ms"]
	wv := worsening(bd.Better, med(sa, "first_batch_p50_ms", false), med(ss, "first_batch_p50_ms", false))
	out["ledger_flush_10ms.first_batch_p50_ms"] = metric{wv * 100, "%"}
	verdict("ledger_flush_10ms_flagged", true, wv > bd.Bound)
	clean("shuffle", sa, sc)

	var ea, es, ec []*result
	for i := 0; i < n; i++ {
		r, err := run("epoch", i, nil)
		if err != nil {
			return err
		}
		ea = append(ea, r)
	}
	kbps := int(med(ea, "epoch_frame_MBps", true) * 1e6 / 1024 / 2)
	for i := 0; i < n; i++ {
		for _, arm := range []struct {
			dst   *[]*result
			extra []string
		}{{&es, []string{"-serve-max-kbps", strconv.Itoa(kbps)}}, {&ec, nil}} {
			r, err := run("epoch", i, arm.extra)
			if err != nil {
				return err
			}
			*arm.dst = append(*arm.dst, r)
		}
	}
	bd = bounds["ops_per_s"]
	wv = worsening(bd.Better, med(ea, "ops_per_s", false), med(es, "ops_per_s", false))
	out["serve_max_kbps_half.ops_per_s"] = metric{wv * 100, "%"}
	verdict("serve_max_kbps_half_flagged", true, wv > bd.Bound)
	clean("epoch", ea, ec)

	printTable("selfcheck", out)
	if err := b.printLine(out); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("sensitivity self-check failed: see the verdict lines")
	}
	return nil
}
