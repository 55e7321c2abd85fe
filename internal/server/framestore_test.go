// Acceptance tests for the disk tier of the serving path: fully-cold
// frame and NDJSON streams served from shard sidecars must be
// byte-identical to their references, frames must make zero codec
// calls, replayed pre-sidecar jobs must lazily backfill sidecars, and
// torn or corrupt sidecars must be survived by falling back — never by
// serving bad bytes.
package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
)

// buildJobs runs one job per spec on a fresh server over dataDir and
// returns the job IDs. The server is closed before returning, so the
// shard sets (and, unless disableStore, their sidecars) are on disk.
func buildJobs(t *testing.T, dataDir string, disableStore bool, specs []JobSpec) []string {
	t.Helper()
	s, err := New(Options{Workers: 4, DataDir: dataDir, DisableFrameStore: disableStore})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer s.Close()
	defer ts.Close()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		id, err := SubmitAndWait(ts.URL, spec, 120*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", spec.Domain, err)
		}
		ids[i] = id
	}
	return ids
}

// sidecarFiles lists the .fpay objects (sealed or not) under a job's
// shard directory.
func sidecarFiles(t *testing.T, dataDir, id string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, "jobs", id))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.Contains(e.Name(), domain.SidecarSuffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestFrameDiskByteExact is the disk tier's wire-invisibility proof:
// for every codec — including the sealed bio domain, whose sidecars
// are encrypted under the per-job key — a fully-cold frame stream
// served from sidecars is byte-identical to the encode-per-request
// reference, and a fully-cold NDJSON stream to the decoded-record
// reference, across batch sizes, cursor resume, and ?max_kbps= pacing.
// A second server with the cache on fills it from the same sidecars
// and must serve the same bytes.
func TestFrameDiskByteExact(t *testing.T) {
	dataDir := t.TempDir()
	ids := buildJobs(t, dataDir, false, []JobSpec{
		{Domain: core.Climate, Seed: 3, Months: 24, Lat: 16, Lon: 32},
		{Domain: core.Fusion, Seed: 3, Shots: 8},
		{Domain: core.Materials, Seed: 3, Structures: 16},
		{Domain: core.BioHealth, Seed: 3, Subjects: 16},
	})
	doms := []core.Domain{core.Climate, core.Fusion, core.Materials, core.BioHealth}
	for i, id := range ids {
		if len(sidecarFiles(t, dataDir, id)) == 0 {
			t.Fatalf("%s: job completed without sidecars on disk", doms[i])
		}
	}

	// Reference bytes from a replay server with the frame store off —
	// a true encode-per-request server.
	ref, err := New(Options{Workers: 2, DataDir: dataDir, DisableFrameStore: true})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	type refStreams struct {
		full   []byte // batch_size=2
		odd    []byte // batch_size=3
		cursor string // mid-stream resume point
		resume []byte // batch_size=2 from cursor
		nd     ndjsonRefs
	}
	refs := make([]refStreams, len(ids))
	for i, id := range ids {
		url := refTS.URL + "/v1/jobs/" + id + "/batches"
		refs[i].full = rawFrameStream(t, url+"?batch_size=2")
		refs[i].odd = rawFrameStream(t, url+"?batch_size=3")
		cursors := frameCursors(t, refs[i].full)
		if len(cursors) < 3 {
			t.Fatalf("%s: only %d batches", doms[i], len(cursors))
		}
		refs[i].cursor = cursors[len(cursors)/2]
		refs[i].resume = rawFrameStream(t, url+"?batch_size=2&cursor="+refs[i].cursor)
		refs[i].nd = newNDJSONRefs(t, ref, id, refs[i].cursor)
	}
	if hits := ref.metrics.frameStoreHits.Value(); hits != 0 {
		t.Fatalf("DisableFrameStore server recorded %v sidecar hits", hits)
	}
	refTS.Close()
	ref.Close()

	// The disk server runs with the cache off: every stream below is
	// fully cold and must be served from the sidecars. The cached
	// server fills its cache from them.
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"disk", Options{Workers: 2, DataDir: dataDir}},
		{"cache", Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 64 << 20}},
	} {
		srv, err := New(cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		srvTS := httptest.NewServer(srv.Handler())
		for i, id := range ids {
			what := fmt.Sprintf("%s %s", cfg.name, doms[i])
			url := srvTS.URL + "/v1/jobs/" + id + "/batches"
			if got := rawFrameStream(t, url+"?batch_size=2"); !bytes.Equal(got, refs[i].full) {
				t.Fatalf("%s: stream differs from reference (%d vs %d bytes)", what, len(got), len(refs[i].full))
			}
			if got := rawFrameStream(t, url+"?batch_size=3"); !bytes.Equal(got, refs[i].odd) {
				t.Fatalf("%s: batch_size=3 stream differs from reference", what)
			}
			if got := rawFrameStream(t, url+"?batch_size=2&cursor="+refs[i].cursor); !bytes.Equal(got, refs[i].resume) {
				t.Fatalf("%s: resumed stream differs from reference", what)
			}
			kbps := len(refs[i].full)/1024 + 1
			if got := rawFrameStream(t, fmt.Sprintf("%s?batch_size=2&max_kbps=%d", url, kbps)); !bytes.Equal(got, refs[i].full) {
				t.Fatalf("%s: paced stream differs from reference", what)
			}
			refs[i].nd.check(t, what, url, refs[i].cursor)
		}
		srvTS.Close()
		srv.Close()
		if hits := srv.metrics.frameStoreHits.Value(); hits == 0 {
			t.Fatalf("%s: no stream was sidecar-served", cfg.name)
		}
		if misses := srv.metrics.frameStoreMisses.Value(); misses != 0 {
			t.Fatalf("%s: %v sidecar misses on a fully-sidecared job set", cfg.name, misses)
		}
		if errs := srv.metrics.frameStoreErrors.Value(); errs != 0 {
			t.Fatalf("%s: %v sidecar errors on pristine sidecars", cfg.name, errs)
		}
	}
}

// countingCodec wraps a real codec and counts every Encode/Decode-side
// call, so a test can prove a serving path never touched the codec.
type countingCodec struct {
	domain.Codec
	calls atomic.Int64
}

func (c *countingCodec) Decode(rec []byte) (any, int64, error) {
	c.calls.Add(1)
	return c.Codec.Decode(rec)
}

func (c *countingCodec) Line(h domain.BatchHeader, recs []any) (any, error) {
	c.calls.Add(1)
	return c.Codec.Line(h, recs)
}

func (c *countingCodec) AppendFramePayload(buf []byte, recs []any) ([]byte, error) {
	c.calls.Add(1)
	return c.Codec.AppendFramePayload(buf, recs)
}

func (c *countingCodec) DecodeFramePayload(payload []byte, count int) ([]any, error) {
	c.calls.Add(1)
	return c.Codec.DecodeFramePayload(payload, count)
}

// TestFrameDiskZeroCodecCalls pins the acceptance criterion directly:
// a fully-cold frame stream over a job with sidecars performs zero
// codec Encode/Decode calls on the serving path. The fusion plugin's
// codec is swapped for a counting wrapper after the job is built, so
// any decode, line build, or payload encode during serving trips the
// counter.
func TestFrameDiskZeroCodecCalls(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, false, []JobSpec{{Domain: core.Fusion, Seed: 4, Shots: 8}})[0]

	plug, err := domain.Lookup(core.Fusion)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingCodec{Codec: plug.Codec}
	wrapped := plug
	wrapped.Codec = counting
	if err := domain.Register(wrapped); err != nil {
		t.Fatal(err)
	}
	defer domain.Register(plug)

	s, err := New(Options{Workers: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=3"
	stream := rawFrameStream(t, url)
	if len(stream) == 0 {
		t.Fatal("empty frame stream")
	}
	if n := counting.calls.Load(); n != 0 {
		t.Fatalf("cold sidecar-served frame stream made %d codec calls, want 0", n)
	}
	if hits := s.metrics.frameStoreHits.Value(); hits == 0 {
		t.Fatal("stream was not sidecar-served")
	}
	// Sanity: the counter does trip on paths that must use the codec.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/batches?batch_size=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if counting.calls.Load() == 0 {
		t.Fatal("NDJSON stream made no codec calls — counting codec is not wired in")
	}
}

// TestSidecarBackfillReplayedJobs: a job built before the disk tier
// existed (simulated with DisableFrameStore) has no sidecars; the
// first frame access on a current server backfills them, and the next
// cold stream is served from disk.
func TestSidecarBackfillReplayedJobs(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, true, []JobSpec{{Domain: core.Materials, Seed: 5, Structures: 16}})[0]
	if files := sidecarFiles(t, dataDir, id); len(files) != 0 {
		t.Fatalf("DisableFrameStore build still wrote sidecars: %v", files)
	}

	s, err := New(Options{Workers: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=2"
	first := rawFrameStream(t, url)
	if v := s.metrics.frameStoreMisses.Value(); v == 0 {
		t.Fatal("first stream over a sidecar-less job recorded no misses")
	}
	if v := s.metrics.frameStoreBackfills.Value(); v == 0 {
		t.Fatal("first frame access did not backfill sidecars")
	}
	if files := sidecarFiles(t, dataDir, id); len(files) == 0 {
		t.Fatal("no .fpay files on disk after backfill")
	}
	hitsBefore := s.metrics.frameStoreHits.Value()
	second := rawFrameStream(t, url)
	if !bytes.Equal(first, second) {
		t.Fatal("backfilled stream differs from the encode-per-request stream")
	}
	if v := s.metrics.frameStoreHits.Value(); v <= hitsBefore {
		t.Fatal("second stream was not served from the backfilled sidecars")
	}
}

// TestSidecarCorruptionFallback: torn, bit-flipped, or deleted
// sidecars must never surface on either wire — frame and NDJSON
// streams stay byte-exact via the SHA-256-verified decode+encode
// fallback, and the error counter records each rejected sidecar. A
// deleted sidecar counts as absent and is lazily re-backfilled. Each
// wire streams from a fresh server over freshly corrupted sidecars, so
// neither reads what the other repaired or cached.
func TestSidecarCorruptionFallback(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, false, []JobSpec{{Domain: core.Fusion, Seed: 6, Shots: 8}})[0]
	jobDir := filepath.Join(dataDir, "jobs", id)
	files := sidecarFiles(t, dataDir, id)
	if len(files) == 0 {
		t.Fatal("no sidecars on disk")
	}
	pristine := make(map[string][]byte, len(files))
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(jobDir, f))
		if err != nil {
			t.Fatal(err)
		}
		pristine[f] = b
	}

	ref, err := New(Options{Workers: 2, DataDir: dataDir, DisableFrameStore: true})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	want := map[string][]byte{
		domain.WireFrame:  rawFrameStream(t, refTS.URL+"/v1/jobs/"+id+"/batches?batch_size=2"),
		domain.WireNDJSON: ndjsonReference(t, ref, id, 2, ""),
	}
	refTS.Close()
	ref.Close()

	corrupt := map[string]func(b []byte) []byte{
		"bitflip":  func(b []byte) []byte { m := append([]byte(nil), b...); m[len(m)/2] ^= 0x01; return m },
		"truncate": func(b []byte) []byte { return b[:len(b)*2/3] },
		"deleted":  nil, // removed from disk instead of rewritten
	}
	// Each corruption mode runs against both cold serving modes: direct
	// sidecar streaming (no caches) and frame-cache fill.
	caches := map[string]Options{
		"disk":  {Workers: 2, DataDir: dataDir},
		"cache": {Workers: 2, DataDir: dataDir, ServeCacheBytes: 64 << 20},
	}
	for mode, mutate := range corrupt {
		for cacheName, opts := range caches {
			t.Run(mode+"/"+cacheName, func(t *testing.T) {
				for _, wire := range []string{domain.WireFrame, domain.WireNDJSON} {
					for f, b := range pristine {
						if mutate == nil {
							if err := os.Remove(filepath.Join(jobDir, f)); err != nil {
								t.Fatal(err)
							}
							continue
						}
						if err := os.WriteFile(filepath.Join(jobDir, f), mutate(b), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					s, err := New(opts)
					if err != nil {
						t.Fatal(err)
					}
					ts := httptest.NewServer(s.Handler())
					url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=2"
					var got []byte
					if wire == domain.WireFrame {
						got = rawFrameStream(t, url)
					} else {
						got = rawNDJSONStream(t, url)
					}
					ts.Close()
					s.Close()
					for f, b := range pristine {
						if err := os.WriteFile(filepath.Join(jobDir, f), b, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(got, want[wire]) {
						t.Fatalf("%s stream over %s sidecars differs from reference (%d vs %d bytes)", wire, mode, len(got), len(want[wire]))
					}
					if mode == "deleted" {
						// Absent means lost, not corrupt: lazily rebuilt.
						if v := s.metrics.frameStoreBackfills.Value(); v == 0 {
							t.Fatalf("%s: deleted sidecars were not backfilled", wire)
						}
					} else if v := s.metrics.frameStoreErrors.Value(); v == 0 {
						t.Fatalf("%s: %s sidecars were served without tripping the error counter", wire, mode)
					}
				}
			})
		}
	}
}
