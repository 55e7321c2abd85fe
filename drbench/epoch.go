package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/domain"
)

// epochClient is one epoch-draining client's tally.
type epochClient struct {
	wire       string
	epochs     []float64   // whole timed epochs' durations, seconds
	firstBatch [][]float64 // per job of F: stream open to first batch, ms
	gaps       []float64   // batch-to-batch gaps after the first, ms (traced runs)
}

// runEpoch is the closed-loop epoch load: one client drains full
// epochs of F over frames while another drains them over NDJSON, and
// every stream's body hash must equal the set-up reference. Each client
// first drains one untimed warm-up epoch so the caches hold F. The
// gated metrics are the frame client's; both clients' rates are
// reported by name. The NDJSON client is not gated: its rate follows
// the host's speed too closely to repeat within a bound (see
// README.md). A client's rate is taken from its median epoch time, so
// one stalled epoch does not move it.
func (b *bench) runEpoch(ctx context.Context, d *deployment, refs []*jobRef, window time.Duration) (*workloadOut, error) {
	wires := []string{domain.WireFrame, domain.WireNDJSON}
	clients := make([]*epochClient, len(wires))
	var warm, wg sync.WaitGroup
	startc := make(chan time.Time)
	for i, wire := range wires {
		clients[i] = &epochClient{wire: wire, firstBatch: make([][]float64, len(refs))}
		warm.Add(1)
		wg.Add(1)
		go func(ec *epochClient) {
			defer wg.Done()
			hc := newHTTPClient(1)
			b.drainEpoch(ctx, hc, d, refs, ec, false)
			warm.Done()
			start := <-startc
			wctx, cancel := context.WithDeadline(ctx, start.Add(window))
			defer cancel()
			for wctx.Err() == nil {
				t0 := time.Now()
				if b.drainEpoch(wctx, hc, d, refs, ec, true) {
					ec.epochs = append(ec.epochs, time.Since(t0).Seconds())
				}
			}
		}(clients[i])
	}
	warm.Wait()
	start := time.Now()
	for range wires {
		startc <- start
	}
	wg.Wait()

	out := newWorkloadOut()
	for _, ec := range clients {
		if len(ec.epochs) == 0 {
			return nil, fmt.Errorf("epoch: the %s client finished no epoch in %s", ec.wire, window)
		}
		rate := 1 / median(ec.epochs)
		// Whole epochs only, so every job of F has the same weight in the
		// pooled sample. The gated p50 is the mean of the per-job medians,
		// which does not jump between the jobs' clusters; the p90 lies
		// inside the slowest job's cluster.
		var all []float64
		var perJob float64
		for _, xs := range ec.firstBatch {
			all = append(all, xs...)
			perJob += median(xs) / float64(len(ec.firstBatch))
		}
		if ec.wire == domain.WireFrame {
			out.e2e["ops_per_s"] = rate
			out.e2e["first_batch_p50_ms"] = perJob
			out.e2e["first_batch_p90_ms"] = quantile(all, 0.9)
			out.primary = rate
		}
		out.named["epoch_"+ec.wire+"_MBps"] = metric{rate * float64(epochBytes(refs, ec.wire)) / 1e6, "MB/s"}
		out.named["epochs_per_s."+ec.wire] = metric{rate, "1/s"}
		out.samples["epoch_s."+ec.wire] = ec.epochs
		out.samples["first_batch_ms."+ec.wire] = all
		if len(ec.gaps) > 0 {
			out.samples["batch_gap_ms."+ec.wire] = ec.gaps
		}
	}
	return out, nil
}

// drainEpoch streams every job of F once on the client's wire and
// checks each body against the reference; it reports whether the whole
// epoch was read and verified. A stream cut by the end of the
// measurement window is neither counted nor a failure.
func (b *bench) drainEpoch(ctx context.Context, hc *http.Client, d *deployment, refs []*jobRef, ec *epochClient, timed bool) bool {
	traced := timed && b.tr != nil && ec.wire == domain.WireFrame
	var firsts, gaps []float64
	for _, ref := range refs {
		sr, err := fetchStream(ctx, hc, batchesURL(d.base, ref.id, "", 0), ec.wire, false, traced)
		if ctx.Err() != nil {
			return false
		}
		if err == nil {
			if want := ref.wire[ec.wire]; sr.bytes != want.bytes || sr.crc != want.crc {
				err = fmt.Errorf("%s %s epoch body: %d bytes crc %08x, reference %d bytes crc %08x",
					ref.id, ec.wire, sr.bytes, sr.crc, want.bytes, want.crc)
			}
		}
		if !b.op(err) {
			return false
		}
		first, _ := sr.firstBatch()
		firsts = append(firsts, ms(first.Sub(sr.sent)))
		for i := 1; i < len(sr.batches); i++ {
			gaps = append(gaps, ms(sr.batches[i].Sub(sr.batches[i-1])))
		}
		if traced {
			b.tr.streamSpans(sr)
		}
	}
	if timed {
		for i, f := range firsts {
			ec.firstBatch[i] = append(ec.firstBatch[i], f)
		}
		ec.gaps = append(ec.gaps, gaps...)
	}
	return true
}
