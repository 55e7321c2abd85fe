package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/domain"
	"repro/pkg/client"
)

// perLayerNames is every per-layer metric a traced run reports, with
// its unit, in BENCHMARK.json order.
func perLayerNames() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, dn := range domainNames {
		add("synth_ms."+dn.short, "ms")
		for _, k := range stageKinds {
			add("stage_ms."+k.String()+"."+dn.short, "ms")
		}
		add("sidecar_build_ms."+dn.short, "ms")
		add("shard.syncs_per_job."+dn.short, "count")
	}
	add("shard.create_us", "us")
	add("shard.write_MBps", "MB/s")
	add("shard.close_p50_us", "us")
	add("shard.open_us", "us")
	add("shard.readat_MBps", "MB/s")
	add("sidecar_open_us", "us")
	add("sidecar_verify_MBps", "MB/s")
	add("decrypt_MBps", "MB/s")
	for _, k := range wireKinds {
		add("decode_MBps."+k, "MB/s")
		add("ndjson_line_MBps."+k, "MB/s")
		add("frame_encode_MBps."+k, "MB/s")
		add("frame_payload_decode_MBps."+k, "MB/s")
	}
	add("envelope_ns", "ns")
	for _, n := range []string{"1", "2"} {
		add("ledger.append_p50_us."+n, "us")
		add("ledger.append_p99_us."+n, "us")
	}
	add("tenant.auth_ns", "ns")
	for _, m := range []string{"open_to_headers_ms", "headers_to_first_batch_ms", "batch_gap_p50_ms", "batch_gap_p99_ms",
		"queue_wait_ms", "run_ms", "poll_lag_ms"} {
		add("client."+m, "ms")
	}
	add("client.frame_decode_MBps", "MB/s")
	add("client.ndjson_decode_MBps", "MB/s")
	for _, m := range []string{"frame_cache_hit_ratio", "shard_cache_hit_ratio", "frame_store_hit_ratio", "ledger_records_per_sync"} {
		add(m, "ratio")
	}
	add("cache_evictions", "count")
	add("serve_errors", "count")
	add("host.cpu_baseline_ms", "ms")
	add("host.fsync_p50_us", "us")
	add("host.loopback_MBps", "MB/s")
	add("loadgen.late_p99_ms", "ms")
	add("loadgen.cpu_s", "s")
	add("trace.overhead_pct", "%")
	return out
}

// tracedRun is the per-layer run. It replays the build rotation and
// fixture F in-process with a span around every layer call, then
// drives every workload against draid with client spans on — the named
// workload also once untraced, for the tracing overhead — and reports
// the per-layer metrics from the spans' self times.
func (b *bench) tracedRun(ctx context.Context, w workloadDef) (*result, error) {
	if err := b.newWork("trace-" + w.name); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	res := b.newResult(w.name, true)
	tr := newTracer()
	b.tr = tr

	replayDir := filepath.Join(b.work, "replay")
	if err := os.MkdirAll(replayDir, 0o755); err != nil {
		return nil, err
	}
	if err := replayLayers(tr, replayDir, b.seed); err != nil {
		return nil, err
	}
	views := tr.views()
	for k, v := range layerMetrics(views) {
		res.Metrics[k] = v
	}
	if err := os.RemoveAll(replayDir); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()

	window := b.window() / 2
	cpu0 := cpuSeconds()
	drives := map[string]*workloadOut{}
	var overhead float64
	driveOne := func(name string, d *deployment, fx fixture, ladder bool) error {
		wd, _ := lookupWorkload(name)
		if name == w.name {
			b.tr = nil
			u, err := b.drive(ctx, wd, d, fx, window, ladder)
			b.tr = tr
			if err != nil {
				return err
			}
			before, err := d.scrape(ctx)
			if err != nil {
				return err
			}
			t, err := b.drive(ctx, wd, d, fx, window, ladder)
			if err != nil {
				return err
			}
			after, err := d.scrape(ctx)
			if err != nil {
				return err
			}
			for k, v := range serverCounts(before, after) {
				res.Metrics[k] = metric{v, unitOf(k)}
			}
			if name == "shuffle" {
				overhead = (t.primary - u.primary) / u.primary * 100
			} else {
				overhead = (u.primary - t.primary) / u.primary * 100
			}
			drives[name] = t
			return nil
		}
		t, err := b.drive(ctx, wd, d, fx, window, ladder)
		drives[name] = t
		return err
	}

	// Epoch, then build, share one deployment: build's -max-jobs 8
	// evicts F only once epoch is done with it.
	da, refs, _, err := b.setupFixture(ctx, "trace-a", append([]string{"-max-jobs", "8"}, b.extra...), 1)
	if err != nil {
		return nil, err
	}
	defer da.stop()
	dec, err := sdkDecode(ctx, da, refs)
	if err != nil {
		return nil, err
	}
	res.Metrics["client.frame_decode_MBps"] = metric{dec[domain.WireFrame], "MB/s"}
	res.Metrics["client.ndjson_decode_MBps"] = metric{dec[domain.WireNDJSON], "MB/s"}
	counts, err := buildReference(mediumSpecs(b.seed))
	if err != nil {
		return nil, fmt.Errorf("build reference: %w", err)
	}
	for _, name := range []string{"epoch", "build"} {
		if err := driveOne(name, da, fixture{jobs: refs, counts: counts}, false); err != nil {
			return nil, err
		}
	}
	if err := b.verifyAudit(ctx, da); err != nil {
		return nil, err
	}
	da.stop()

	sflags, _ := lookupWorkload("shuffle")
	db, refs, _, err := b.setupFixture(ctx, "trace-b", append(append([]string(nil), sflags.flags...), b.extra...), 1)
	if err != nil {
		return nil, err
	}
	defer db.stop()
	if err := driveOne("shuffle", db, fixture{jobs: refs}, false); err != nil {
		return nil, err
	}
	if err := b.verifyAudit(ctx, db); err != nil {
		return nil, err
	}
	db.stop()
	b.endBaselines(res)

	sh, ep, bu := drives["shuffle"], drives["epoch"], drives["build"]
	put := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(name)} }
	put("client.open_to_headers_ms", median(sh.samples["open_to_headers_ms"]))
	put("client.headers_to_first_batch_ms", median(sh.samples["headers_to_first_batch_ms"]))
	put("client.batch_gap_p50_ms", median(ep.samples["batch_gap_ms.frame"]))
	put("client.batch_gap_p99_ms", quantile(ep.samples["batch_gap_ms.frame"], 0.99))
	put("client.queue_wait_ms", median(bu.samples["queue_wait_ms"]))
	put("client.run_ms", median(bu.samples["run_ms"]))
	put("client.poll_lag_ms", median(bu.samples["poll_lag_ms"]))
	put("loadgen.late_p99_ms", quantile(sh.samples["late_ms"], 0.99))
	put("loadgen.cpu_s", cpuSeconds()-cpu0)
	put("host.cpu_baseline_ms", (res.Baselines["cpu_baseline_start_ms"]+res.Baselines["cpu_baseline_end_ms"])/2)
	put("host.fsync_p50_us", res.Baselines["fsync_p50_us"])
	put("host.loopback_MBps", res.Baselines["loopback_MBps"])
	put("trace.overhead_pct", overhead)
	for _, m := range perLayerNames() {
		if _, ok := res.Metrics[m.name]; !ok {
			b.op(fmt.Errorf("traced run produced no value for %s", m.name))
			res.Metrics[m.name] = metric{0, m.unit}
		}
	}

	if err := os.MkdirAll(filepath.Join(b.out, "traces"), 0o755); err != nil {
		return nil, err
	}
	spans := filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d-%d.jsonl", w.name, b.seed, time.Now().UnixNano()))
	if err := tr.writeJSONL(spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", spans)
	fmt.Print(selfTimeTable(tr.views()))
	for k, v := range res.Metrics {
		res.Named[k] = v
	}
	return res, nil
}

// unitOf gives a per-layer metric's unit.
func unitOf(name string) string {
	for _, m := range perLayerNames() {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// sdkDecode measures the SDK's decode rate per wire: F's stream
// bodies are fetched once, then replayed from memory through
// pkg/client, which decodes and validates every batch.
func sdkDecode(ctx context.Context, d *deployment, refs []*jobRef) (map[string]float64, error) {
	out := map[string]float64{}
	hc := newHTTPClient(1)
	for _, wire := range []string{domain.WireFrame, domain.WireNDJSON} {
		var bodies [][]byte
		var total int64
		for _, r := range refs {
			sr, err := fetchStream(ctx, hc, batchesURL(d.base, r.id, "", 0), wire, true, false)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, sr.body)
			total += int64(len(sr.body))
		}
		t0 := time.Now()
		for _, body := range bodies {
			mem := &http.Client{Transport: memTransport{body: body, wire: wire}}
			s, err := client.OpenStreamURL(ctx, mem, "http://memory/v1/jobs/replay/batches", "", wire, -1)
			if err != nil {
				return nil, err
			}
			if _, _, _, err := s.Drain(); err != nil {
				return nil, fmt.Errorf("SDK decode of a %s stream: %w", wire, err)
			}
		}
		out[wire] = mbps(total, time.Since(t0))
	}
	return out, nil
}

// memTransport answers every request with one recorded stream body.
type memTransport struct {
	body []byte
	wire string
}

func (m memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct := domain.ContentTypeNDJSON
	if m.wire == domain.WireFrame {
		ct = domain.ContentTypeFrame
	}
	h := http.Header{}
	h.Set("Content-Type", ct)
	h.Set(domain.HeaderWire, m.wire)
	return &http.Response{StatusCode: http.StatusOK, Header: h, Body: io.NopCloser(bytes.NewReader(m.body)), Request: req}, nil
}
