package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/shard"
	"repro/pkg/client"
)

// buildCounts is the record and shard count of one medium-scale job.
type buildCounts struct {
	records int64
	shards  int
}

// buildInProcess runs a spec's pipeline in-process over an in-memory
// store and returns its counts.
func buildInProcess(sp client.JobSpec) (buildCounts, error) {
	plug, err := domain.Lookup(sp.Domain)
	if err != nil {
		return buildCounts{}, err
	}
	run, err := plug.Build(sp, shard.NewMemSink())
	if err != nil {
		return buildCounts{}, err
	}
	if _, err := run.Pipeline.Run(run.Dataset); err != nil {
		return buildCounts{}, err
	}
	m, err := plug.Manifest(run.Dataset)
	if err != nil {
		return buildCounts{}, err
	}
	return buildCounts{run.Dataset.Records, len(m.Shards)}, nil
}

// buildReference builds each medium spec once in-process, in
// parallel, for the counts draid must report for it.
func buildReference(specs []client.JobSpec) (map[core.Domain]buildCounts, error) {
	counts := make([]buildCounts, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, sp := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			counts[i], errs[i] = buildInProcess(sp)
		}()
	}
	wg.Wait()
	out := map[core.Domain]buildCounts{}
	for i, sp := range specs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[sp.Domain] = counts[i]
	}
	return out, nil
}

// referenceRechecks caps the extra in-process builds of a spec whose
// draid job reported other counts than the reference. If the pipeline
// is not reproducible for a fixed spec and seed, a rebuild soon
// disagrees with the reference: when rebuilds disagree at least 3 times
// in 8, as fusion's do today, 32 all agree with a chance below 1e-6.
const referenceRechecks = 32

// countMismatch is a draid job whose counts differ from the reference.
type countMismatch struct {
	id  string
	got buildCounts
}

// settleMismatches decides the count mismatches seen during the run.
// Per domain with any, it rebuilds the spec in-process until a rebuild
// disagrees with the reference, at most referenceRechecks times. A
// disagreement shows the pipeline is not reproducible for a fixed spec
// and seed, so no reference exists and the domain's counts go
// unchecked; if every rebuild agrees, each mismatch is a failure. It
// returns how many domains were found unreproducible.
func (b *bench) settleMismatches(specs []client.JobSpec, ref map[core.Domain]buildCounts, seen map[core.Domain][]countMismatch) (int, error) {
	unreproducible := 0
	for _, sp := range specs {
		ms := seen[sp.Domain]
		if len(ms) == 0 {
			continue
		}
		reproducible := true
		for k := 0; k < referenceRechecks && reproducible; k++ {
			c, err := buildInProcess(sp)
			if err != nil {
				return 0, err
			}
			reproducible = c == ref[sp.Domain]
		}
		if !reproducible {
			unreproducible++
			fmt.Fprintf(os.Stderr, "drbench: the %s pipeline is not reproducible in-process for one spec and seed; its record and shard counts go unchecked\n", sp.Domain)
			continue
		}
		for _, m := range ms {
			b.fail(fmt.Errorf("job %s (%s): %d records / %d shards, reference %d / %d",
				m.id, sp.Domain, m.got.records, m.got.shards, ref[sp.Domain].records, ref[sp.Domain].shards))
		}
	}
	return unreproducible, nil
}

// buildJob is one job of the build workload as its submitter saw it.
type buildJob struct {
	id            string
	domain        core.Domain
	counts        buildCounts   // records and shards draid reported
	submitToDone  time.Duration // client send to the server's done event
	submitToFirst time.Duration // client send to first batch received
	queueWait     time.Duration // queued to running event
	run           time.Duration // running to done event
	pollLag       time.Duration // done event to the client seeing done
}

// setupBuild is the build workload's set-up, reps times: start draid
// and build each medium spec in-process for the record and shard counts
// its jobs must report. The build workload reads no fixture, so its
// set-up builds none.
func (b *bench) setupBuild(ctx context.Context, name string, flags []string, reps int) (*deployment, map[core.Domain]buildCounts, []float64, error) {
	var counts map[core.Domain]buildCounts
	d, times, err := b.setUp(ctx, name, flags, reps, func(*deployment) error {
		var err error
		counts, err = buildReference(mediumSpecs(b.seed))
		if err != nil {
			return fmt.Errorf("build reference: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return d, counts, times, nil
}

// runBuild is the closed-loop build workload: one submitter repeats the
// seeded rotation of the four medium specs; per job it submits, waits
// for done, then reads the first batch, whose counts must match expect.
// A rotation started before the window ends runs to completion; only
// whole rotations count. The job rate is taken from the median rotation
// time, so one stalled rotation does not move it. A second submitter
// would run jobs side by side, and which domains met would follow the
// seed's rotation order, and with it the job rate; one submitter's
// rotation time is the sum of its four jobs' latencies in any order.
func (b *bench) runBuild(ctx context.Context, d *deployment, window time.Duration, expect map[core.Domain]buildCounts) (*workloadOut, error) {
	specs := mediumSpecs(b.seed)
	mismatches := map[core.Domain][]countMismatch{}
	var jobs []buildJob
	var rotations []float64 // whole rotations' durations, seconds
	// Each rotation starts one domain further into the seeded order.
	perm := rand.New(rand.NewPCG(uint64(subSeed(b.seed, "rotation")), 0)).Perm(len(specs))
	c := d.client(newHTTPClient(1))
	start := time.Now()
	for r := 0; time.Since(start) < window && ctx.Err() == nil; r++ {
		off := r % len(specs)
		order := append(append([]int(nil), perm[off:]...), perm[:off]...)
		var rot []buildJob
		whole := true
		t0 := time.Now()
		for _, k := range order {
			j, err := b.buildOne(ctx, c, specs[k])
			if !b.op(err) {
				whole = false
				continue
			}
			if j.counts != expect[j.domain] {
				mismatches[j.domain] = append(mismatches[j.domain], countMismatch{j.id, j.counts})
			}
			rot = append(rot, j)
		}
		if whole {
			jobs = append(jobs, rot...)
			rotations = append(rotations, time.Since(t0).Seconds())
		}
	}
	unreproducible, err := b.settleMismatches(specs, expect, mismatches)
	if err != nil {
		return nil, fmt.Errorf("build reference: %w", err)
	}

	out := newWorkloadOut()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("build: no whole rotation completed")
	}
	rate := float64(len(specs)) / median(rotations)
	done := sample(jobs, func(j buildJob) time.Duration { return j.submitToDone })
	first := sample(jobs, func(j buildJob) time.Duration { return j.submitToFirst })
	out.samples["rotation_s"] = rotations
	out.samples["submit_to_done_ms"] = done
	out.samples["submit_to_first_batch_ms"] = first
	out.samples["queue_wait_ms"] = sample(jobs, func(j buildJob) time.Duration { return j.queueWait })
	out.samples["run_ms"] = sample(jobs, func(j buildJob) time.Duration { return j.run })
	out.samples["poll_lag_ms"] = sample(jobs, func(j buildJob) time.Duration { return j.pollLag })

	out.named["jobs_per_s"] = metric{rate, "1/s"}
	out.named["submit_to_done_p50_ms"] = metric{median(done), "ms"}
	out.named["submit_to_done_p90_ms"] = metric{quantile(done, 0.9), "ms"}
	out.named["submit_to_first_batch_p50_ms"] = metric{median(first), "ms"}

	// Each whole rotation holds one job per domain, so the sample is a
	// four-way mixture with equal weights; the gated p50 is the mean of
	// the per-domain medians, which does not jump between domain
	// clusters. The p90 lies inside the slowest domain's cluster.
	var perDomain float64
	for _, dn := range domainNames {
		var xs []float64
		for _, j := range jobs {
			if j.domain == dn.domain {
				xs = append(xs, ms(j.submitToFirst))
			}
		}
		perDomain += median(xs) / float64(len(domainNames))
		out.named["submit_to_first_batch_p50_ms."+dn.short] = metric{median(xs), "ms"}
	}
	out.named["unreproducible_domains"] = metric{float64(unreproducible), "count"}
	out.e2e["ops_per_s"] = rate
	out.e2e["first_batch_p50_ms"] = perDomain
	out.e2e["first_batch_p90_ms"] = quantile(first, 0.9)
	out.primary = rate
	return out, nil
}

// buildOne submits one job, waits for done, reads its first batch, and
// checks its state, level and first batch. The caller checks its
// counts against the reference.
func (b *bench) buildOne(ctx context.Context, c *client.Client, spec client.JobSpec) (buildJob, error) {
	j := buildJob{domain: spec.Domain}
	sent := time.Now()
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		return j, err
	}
	st, err = c.WaitDone(ctx, st.ID)
	if err != nil {
		return j, err
	}
	seen := time.Now()
	if err := checkDone(st); err != nil {
		return j, err
	}
	j.id, j.counts = st.ID, buildCounts{st.Records, st.Shards}
	s, err := c.StreamBatches(ctx, st.ID, client.StreamOptions{MaxBatches: 1, MaxResumes: -1})
	if err != nil {
		return j, err
	}
	w, err := s.Next()
	first := time.Now()
	if err != nil {
		return j, fmt.Errorf("job %s first batch: %w", st.ID, err)
	}
	if w.Kind != st.Kind || int64(w.Count()) != min(32, st.Records) {
		return j, fmt.Errorf("job %s first batch: kind %q with %d records", st.ID, w.Kind, w.Count())
	}
	if _, err := s.Next(); err != io.EOF {
		return j, fmt.Errorf("job %s: stream capped at one batch did not end: %v", st.ID, err)
	}
	evs, err := c.Events(ctx, st.ID)
	if err != nil {
		return j, err
	}
	at := map[string]time.Time{}
	for _, e := range evs {
		at[e.Event] = e.Time
	}
	doneAt, ok := at[client.EventDone]
	if !ok || at[client.EventRunning].IsZero() {
		return j, fmt.Errorf("job %s: event timeline lacks running/done: %+v", st.ID, evs)
	}
	j.submitToDone = doneAt.Sub(sent)
	j.submitToFirst = first.Sub(sent)
	if q, ok := at[client.EventQueued]; ok {
		j.queueWait = at[client.EventRunning].Sub(q)
	}
	j.run = doneAt.Sub(at[client.EventRunning])
	j.pollLag = seen.Sub(doneAt)
	if b.tr != nil {
		b.tr.record("client.job", 0, sent, seen)
		b.tr.record("client.first_batch", 0, seen, first)
	}
	return j, nil
}

func sample[T any](xs []T, f func(T) time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = ms(f(x))
	}
	return out
}
