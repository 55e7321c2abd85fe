package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/domain"
)

const (
	shuffleNominalRPS = 100.0
	shuffleP90LimitMS = 20.0
	// shuffleLateGrowthMS is how much the generator's median lateness may
	// rise from the first to the last third of a rung before the rung
	// counts as building a backlog.
	shuffleLateGrowthMS = 5.0
	shuffleRungStartRPS = 150.0
	shuffleLadderUp     = 1.5
	shuffleRung         = time.Second
	// failedLatencyMS stands in for the latency of a failed request: it
	// misses every limit.
	failedLatencyMS = 60000.0
)

// shuffleReq is one short stream: a job of F and the index of its start
// cursor in the reference sequence (-1 starts at the beginning).
type shuffleReq struct {
	job, k int
}

type reqResult struct {
	due, sent, first time.Time
	headers          time.Time
	ok               bool
	done             bool
}

func (r reqResult) latencyMS() float64 {
	if !r.ok {
		return failedLatencyMS
	}
	return ms(r.first.Sub(r.due))
}

// shuffleStarts draws n seeded start positions: a job of F, then a
// batch boundary of that job which leaves at least one batch to read.
// Both draws go without replacement — seeded shuffles of the four jobs
// and of each job's boundaries, one after another — so every four
// consecutive requests hit every job once and the run's mix of cheap
// and expensive requests does not depend on the seed.
func shuffleStarts(seed int64, refs []*jobRef, n int) []shuffleReq {
	rng := rand.New(rand.NewPCG(uint64(subSeed(seed, "shuffle")), 0))
	ks := make([][]int, len(refs))
	next := make([]int, len(refs))
	for j, r := range refs {
		for k := -1; k <= len(r.cursors)-2; k++ {
			ks[j] = append(ks[j], k)
		}
		next[j] = len(ks[j])
	}
	jobs := make([]int, len(refs))
	for j := range jobs {
		jobs[j] = j
	}
	out := make([]shuffleReq, 0, n)
	for len(out) < n {
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		for _, j := range jobs {
			if next[j] == len(ks[j]) {
				rng.Shuffle(len(ks[j]), func(a, b int) { ks[j][a], ks[j][b] = ks[j][b], ks[j][a] })
				next[j] = 0
			}
			out = append(out, shuffleReq{job: j, k: ks[j][next[j]]})
			next[j]++
		}
	}
	return out[:n]
}

// runShuffle is the open-loop random-access workload: short frame
// streams (max_batches=2) at seeded cursors of F on a fixed schedule
// over conns connections. It measures first-batch latency at the
// nominal rate, then climbs a ladder of rates to find the highest one
// whose p90 stays within the limit without a growing backlog.
func (b *bench) runShuffle(ctx context.Context, d *deployment, refs []*jobRef, conns int, window time.Duration, ladder bool) (*workloadOut, error) {
	hc := newHTTPClient(conns)
	nominal := window
	if ladder {
		nominal = window / 2
	}
	reqs := shuffleStarts(b.seed, refs, 1<<16)
	next := 0
	take := func(n int) []shuffleReq {
		out := make([]shuffleReq, n)
		for i := range out {
			out[i] = reqs[(next+i)%len(reqs)]
		}
		next += n
		return out
	}

	out := newWorkloadOut()
	n := int(shuffleNominalRPS * nominal.Seconds())
	res := b.openLoop(ctx, hc, d, refs, take(n), shuffleNominalRPS, conns)
	var lat, late, open, first []float64
	for _, r := range res {
		lat = append(lat, r.latencyMS())
		late = append(late, ms(r.sent.Sub(r.due)))
		if r.ok {
			open = append(open, ms(r.headers.Sub(r.sent)))
			first = append(first, ms(r.first.Sub(r.headers)))
		}
	}
	// The nominal-rate percentiles are medians over one-second
	// sub-windows, so one stall (an fsync spike, a preempted core)
	// moves one window instead of the whole run.
	perSec := int(shuffleNominalRPS)
	var p50s, p90s []float64
	for lo := 0; lo+perSec <= len(lat); lo += perSec {
		p50s = append(p50s, median(lat[lo:lo+perSec]))
		p90s = append(p90s, quantile(lat[lo:lo+perSec], 0.9))
	}
	out.samples["first_batch_ms"] = lat
	out.samples["late_ms"] = late
	out.samples["open_to_headers_ms"] = open
	out.samples["headers_to_first_batch_ms"] = first
	out.named["first_batch_p50_ms"] = metric{median(p50s), "ms"}
	out.named["first_batch_p90_ms"] = metric{median(p90s), "ms"}
	out.named["first_batch_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	out.e2e["first_batch_p50_ms"] = median(p50s)
	out.e2e["first_batch_p90_ms"] = median(p90s)
	out.primary = median(p50s)
	if !ladder {
		return out, nil
	}

	// The ladder searches for the highest passing rate: it climbs by
	// shuffleLadderUp until a rung fails, then bisects (geometrically)
	// between the highest passing and the lowest failing rate. max_rps
	// interpolates the p90 limit crossing between those two.
	rungs := int((window - nominal) / shuffleRung)
	var pass, fail, passP90, failP90 float64
	rate := shuffleRungStartRPS
	var ladderLog []float64
	for r := 0; r < rungs; r++ {
		res := b.openLoop(ctx, hc, d, refs, take(int(rate*shuffleRung.Seconds())), rate, conns)
		p90, ok := rungVerdict(res)
		ladderLog = append(ladderLog, rate, p90)
		if ok {
			pass, passP90 = rate, p90
		} else {
			fail, failP90 = rate, p90
		}
		switch {
		case fail == 0:
			rate *= shuffleLadderUp
		case pass == 0:
			rate /= shuffleLadderUp
		default:
			rate = math.Sqrt(pass * fail)
		}
	}
	maxRPS := pass
	switch {
	case pass == 0:
		maxRPS = fail * shuffleP90LimitMS / max(failP90, shuffleP90LimitMS)
	case fail > pass && failP90 > shuffleP90LimitMS && failP90 > passP90:
		f := (shuffleP90LimitMS - passP90) / (failP90 - passP90)
		maxRPS = pass * math.Pow(fail/pass, min(max(f, 0), 1))
	}
	out.samples["ladder_rate_p90"] = ladderLog
	out.named["max_rps"] = metric{maxRPS, "1/s"}
	out.e2e["ops_per_s"] = maxRPS
	return out, nil
}

// rungVerdict reports a rung's latency p90 and whether it passed: p90
// within the limit, every request verified and sent, and no lateness
// growth from the first to the last third.
func rungVerdict(res []reqResult) (float64, bool) {
	var lat []float64
	ok := true
	for _, r := range res {
		lat = append(lat, r.latencyMS())
		ok = ok && r.ok && r.done
	}
	// The rung's p90 is the median of its quarters' p90s, so one short
	// stall (an fsync spike, a preempted core) moves one quarter instead
	// of the verdict. A real overload raises every quarter, and a backlog
	// also shows as lateness growth.
	var p90s []float64
	for q := 0; q < 4; q++ {
		p90s = append(p90s, quantile(lat[q*len(lat)/4:(q+1)*len(lat)/4], 0.9))
	}
	p90 := median(p90s)
	third := len(res) / 3
	lateOf := func(rs []reqResult) []float64 {
		var xs []float64
		for _, r := range rs {
			if r.done {
				xs = append(xs, ms(r.sent.Sub(r.due)))
			}
		}
		return xs
	}
	growth := median(lateOf(res[len(res)-third:])) - median(lateOf(res[:third]))
	return p90, ok && p90 <= shuffleP90LimitMS && !(growth > shuffleLateGrowthMS)
}

// openLoop sends reqs at a fixed rate over conns connections: request
// i is due at start + i/rate whether or not earlier ones finished, and
// each worker sends the next due request as soon as it is free. A rung
// that falls more than a second behind its schedule is abandoned; its
// unsent requests stay not done.
func (b *bench) openLoop(ctx context.Context, hc *http.Client, d *deployment, refs []*jobRef, reqs []shuffleReq, rate float64, conns int) []reqResult {
	res := make([]reqResult, len(reqs))
	start := time.Now().Add(5 * time.Millisecond)
	span := time.Duration(float64(len(reqs)) / rate * float64(time.Second))
	lctx, cancel := context.WithDeadline(ctx, start.Add(span+time.Second))
	defer cancel()
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-lctx.Done():
						return
					}
				}
				if lctx.Err() != nil {
					return
				}
				r := reqResult{due: due, sent: time.Now()}
				sr, err := b.shuffleOne(lctx, hc, d, refs, reqs[i])
				if lctx.Err() != nil {
					return
				}
				r.done = true
				r.ok = b.op(err)
				if r.ok {
					r.headers = sr.headers
					r.first, _ = sr.firstBatch()
				}
				res[i] = r
			}
		}()
	}
	wg.Wait()
	return res
}

// shuffleOne opens one short frame stream, decodes it, and checks that
// its batch cursors continue the reference sequence from the start
// cursor.
func (b *bench) shuffleOne(ctx context.Context, hc *http.Client, d *deployment, refs []*jobRef, q shuffleReq) (*streamRead, error) {
	ref := refs[q.job]
	cursor := ""
	if q.k >= 0 {
		cursor = ref.cursors[q.k]
	}
	sr, err := fetchStream(ctx, hc, batchesURL(d.base, ref.id, cursor, 2), domain.WireFrame, true, false)
	if err != nil {
		return nil, err
	}
	want := ref.cursors[q.k+1 : min(q.k+3, len(ref.cursors))]
	body := sr.body
	for i := 0; ; i++ {
		h, recs, rest, err := domain.DecodeFrame(body)
		if err == io.EOF {
			if i != len(want) {
				return nil, fmt.Errorf("%s from %q: %d batches, reference %d", ref.id, cursor, i, len(want))
			}
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s from %q: batch %d: %w", ref.id, cursor, i, err)
		}
		if i >= len(want) || h.Cursor != want[i] || h.Kind != ref.kind || len(recs) == 0 || h.Batch != i {
			return nil, fmt.Errorf("%s from %q: batch %d is %+v with %d records, reference cursors %v kind %s",
				ref.id, cursor, i, h, len(recs), want, ref.kind)
		}
		body = rest
	}
	if b.tr != nil {
		b.tr.streamSpans(sr)
	}
	return sr, nil
}
