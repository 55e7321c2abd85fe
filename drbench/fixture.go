package main

import (
	"context"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/pkg/client"
)

// domainNames pairs each draid domain with the short name metric keys use.
var domainNames = []struct {
	domain core.Domain
	short  string
}{
	{core.Climate, "climate"},
	{core.Fusion, "fusion"},
	{core.BioHealth, "bio"},
	{core.Materials, "materials"},
}

func shortName(d core.Domain) string {
	for _, dn := range domainNames {
		if dn.domain == d {
			return dn.short
		}
	}
	return string(d)
}

// subSeed derives a positive per-purpose seed from the run seed, so
// every input the benchmark generates follows from --seed alone.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	if v := int64(h.Sum64() >> 2); v != 0 {
		return v
	}
	return 1
}

// fixtureSpecs is fixture F: the working set the epoch and shuffle
// workloads stream, built in every run's set-up.
func fixtureSpecs(seed int64) []client.JobSpec {
	return []client.JobSpec{
		{Domain: core.Climate, Months: 600, Lat: 128, Lon: 256, Seed: subSeed(seed, "F/climate")},
		{Domain: core.Fusion, Shots: 256, Seed: subSeed(seed, "F/fusion")},
		{Domain: core.BioHealth, Subjects: 2000, Seed: subSeed(seed, "F/bio")},
		{Domain: core.Materials, Structures: 5000, Seed: subSeed(seed, "F/materials")},
	}
}

// mediumSpecs are the four jobs the build workload rotates through.
func mediumSpecs(seed int64) []client.JobSpec {
	return []client.JobSpec{
		{Domain: core.Climate, Months: 240, Lat: 64, Lon: 128, Seed: subSeed(seed, "M/climate")},
		{Domain: core.Fusion, Shots: 128, Seed: subSeed(seed, "M/fusion")},
		{Domain: core.BioHealth, Subjects: 1000, Seed: subSeed(seed, "M/bio")},
		{Domain: core.Materials, Structures: 2000, Seed: subSeed(seed, "M/materials")},
	}
}

// aiReadyLevel is the final Data Readiness Level every job must reach.
const aiReadyLevel = 5

// jobRef is the set-up reference for one job of F: what every timed
// stream of it must reproduce.
type jobRef struct {
	id   string
	kind string
	// streamed is how many records one full stream carries.
	streamed int64
	// wire maps "frame" and "ndjson" to the full-stream body size and
	// CRC-32C at the default batch size.
	wire map[string]wireRef
	// cursors[i] is the cursor after batch i (identical on both wires).
	cursors []string
}

type wireRef struct {
	bytes int64
	crc   uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkDone verifies a finished job's status: done, and at the
// AI-ready final level.
func checkDone(st *client.JobStatus) error {
	if st.State != client.JobDone {
		return fmt.Errorf("job %s is %s: %s", st.ID, st.State, st.Error)
	}
	if n := len(st.Trajectory); n == 0 || st.Trajectory[n-1].Level != aiReadyLevel {
		return fmt.Errorf("job %s did not reach readiness level %d: %+v", st.ID, aiReadyLevel, st.Trajectory)
	}
	return nil
}

// submitAndWait submits specs in order and waits for all of them.
func submitAndWait(ctx context.Context, c *client.Client, specs []client.JobSpec) ([]*client.JobStatus, error) {
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := c.SubmitJob(ctx, sp)
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", sp.Domain, err)
		}
		ids[i] = st.ID
	}
	out := make([]*client.JobStatus, len(ids))
	for i, id := range ids {
		st, err := c.WaitDone(ctx, id)
		if err != nil {
			return nil, err
		}
		if err := checkDone(st); err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// setUp is a workload's set-up, reps times: start draid with flags on
// a fresh data dir and run prepare against it. It keeps the last
// deployment running. The returned times are draid start to prepare
// done; setup_s is their median.
func (b *bench) setUp(ctx context.Context, name string, flags []string, reps int, prepare func(*deployment) error) (*deployment, []float64, error) {
	var times []float64
	for r := 0; r < reps; r++ {
		dir := filepath.Join(b.work, fmt.Sprintf("%s-%d", name, r))
		t0 := time.Now()
		d, err := startDraid(ctx, b.draid, dir, flags)
		if err != nil {
			return nil, nil, err
		}
		if err := prepare(d); err != nil {
			d.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if r == reps-1 {
			return d, times, nil
		}
		d.stop()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("setup needs at least one repetition")
}

// setupFixture is the set-up of the workloads that stream fixture F:
// build F, reps times, then take the reference from the last
// deployment, which it keeps running.
func (b *bench) setupFixture(ctx context.Context, name string, flags []string, reps int) (*deployment, []*jobRef, []float64, error) {
	var jobs []*client.JobStatus
	d, times, err := b.setUp(ctx, name, flags, reps, func(d *deployment) error {
		var err error
		jobs, err = submitAndWait(ctx, d.client(newHTTPClient(1)), fixtureSpecs(b.seed))
		if err != nil {
			return fmt.Errorf("build fixture F: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	refs, err := referencePass(ctx, d, jobs)
	if err != nil {
		d.stop()
		return nil, nil, nil, fmt.Errorf("fixture reference: %w", err)
	}
	return d, refs, times, nil
}

// referencePass streams every job of F once per wire through the SDK,
// which decodes and Validate()s every batch, while hashing the exact
// body bytes the SDK consumed.
func referencePass(ctx context.Context, d *deployment, jobs []*client.JobStatus) ([]*jobRef, error) {
	var refs []*jobRef
	for _, st := range jobs {
		ref := &jobRef{id: st.ID, kind: st.Kind, wire: map[string]wireRef{}}
		for _, wire := range []string{client.WireFrame, client.WireNDJSON} {
			sum := &bodySum{h: crc32.New(castagnoli)}
			hc := &http.Client{Transport: hashingTransport{base: http.DefaultTransport, sum: sum}}
			s, err := d.client(hc).StreamBatches(ctx, st.ID, client.StreamOptions{Wire: wire, MaxResumes: -1})
			if err != nil {
				return nil, err
			}
			var records int64
			var cursors []string
			for {
				w, err := s.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", st.ID, wire, err)
				}
				if w.Kind != st.Kind {
					return nil, fmt.Errorf("%s %s: batch kind %q, job kind %q", st.ID, wire, w.Kind, st.Kind)
				}
				records += int64(w.Count())
				cursors = append(cursors, w.Cursor)
			}
			// Jobs serve their training split, so a stream holds at most
			// the job's record count; both wires must hold the same.
			if records == 0 || records > st.Records || (ref.streamed != 0 && records != ref.streamed) {
				return nil, fmt.Errorf("%s %s: streamed %d records (job reports %d, other wire %d)", st.ID, wire, records, st.Records, ref.streamed)
			}
			ref.streamed = records
			if sum.n != s.Bytes() {
				return nil, fmt.Errorf("%s %s: hashed %d body bytes, SDK consumed %d", st.ID, wire, sum.n, s.Bytes())
			}
			if ref.cursors == nil {
				ref.cursors = cursors
			} else if fmt.Sprint(cursors) != fmt.Sprint(ref.cursors) {
				return nil, fmt.Errorf("%s: frame and NDJSON cursor sequences differ", st.ID)
			}
			ref.wire[wire] = wireRef{bytes: sum.n, crc: sum.h.Sum32()}
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// bodySum accumulates a CRC-32C and byte count of response bodies.
type bodySum struct {
	h hash.Hash32
	n int64
}

// hashingTransport tees every response body into sum.
type hashingTransport struct {
	base http.RoundTripper
	sum  *bodySum
}

func (t hashingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &teeBody{rc: resp.Body, sum: t.sum}
	return resp, nil
}

type teeBody struct {
	rc  io.ReadCloser
	sum *bodySum
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.sum.h.Write(p[:n])
	b.sum.n += int64(n)
	return n, err
}

func (b *teeBody) Close() error { return b.rc.Close() }

// epochBytes is the size of one epoch of F on a wire.
func epochBytes(refs []*jobRef, wire string) int64 {
	var n int64
	for _, r := range refs {
		n += r.wire[wire].bytes
	}
	return n
}
