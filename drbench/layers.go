package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/ledger"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/tenant"
)

// stageKinds are the paper's five processing stages, in order.
var stageKinds = []core.Stage{core.Ingest, core.Preprocess, core.Transform, core.Structure, core.Shard}

// wireKinds are the codec payload kinds, one per codec.
var wireKinds = []string{domain.KindSamples, domain.KindFusionWindows, domain.KindMaterialsGraphs}

// tracedStore wraps the data dir's shard store: every create, write,
// close (fsync and rename), open and read becomes a span under the
// span the replay currently runs in.
type tracedStore struct {
	inner  *shard.FSSink
	tr     *tracer
	parent atomic.Int64
}

func (s *tracedStore) Create(name string) (io.WriteCloser, error) {
	p := s.parent.Load()
	id := s.tr.begin("shard.create", p)
	w, err := s.inner.Create(name)
	s.tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w: w, s: s, parent: p}, nil
}

func (s *tracedStore) Open(name string) (io.ReadCloser, error) {
	p := s.parent.Load()
	id := s.tr.begin("shard.open", p)
	rc, err := s.inner.Open(name)
	s.tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	return &tracedReader{rc: rc, s: s, parent: p}, nil
}

func (s *tracedStore) OpenRange(name string) (shard.ReaderAtCloser, int64, error) {
	p := s.parent.Load()
	id := s.tr.begin("shard.open", p)
	ra, n, err := s.inner.OpenRange(name)
	s.tr.end(id, 0)
	if err != nil {
		return nil, 0, err
	}
	return &tracedReaderAt{ra: ra, s: s}, n, nil
}

func (s *tracedStore) Names() []string        { return s.inner.Names() }
func (s *tracedStore) Size(name string) int64 { return s.inner.Size(name) }

// writeManifest commits the manifest (temp file, fsync, rename).
func (s *tracedStore) writeManifest(m *shard.Manifest) error {
	id := s.tr.begin("shard.manifest", s.parent.Load())
	err := s.inner.WriteManifest(m)
	s.tr.end(id, 0)
	return err
}

type tracedWriter struct {
	w      io.WriteCloser
	s      *tracedStore
	parent int64
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	id := w.s.tr.begin("shard.write", w.parent)
	n, err := w.w.Write(p)
	w.s.tr.end(id, int64(n))
	return n, err
}

func (w *tracedWriter) Close() error {
	id := w.s.tr.begin("shard.close", w.parent)
	err := w.w.Close()
	w.s.tr.end(id, 0)
	return err
}

type tracedReader struct {
	rc     io.ReadCloser
	s      *tracedStore
	parent int64
}

func (r *tracedReader) Read(p []byte) (int, error) {
	id := r.s.tr.begin("shard.read", r.parent)
	n, err := r.rc.Read(p)
	r.s.tr.end(id, int64(n))
	return n, err
}

func (r *tracedReader) Close() error { return r.rc.Close() }

type tracedReaderAt struct {
	ra shard.ReaderAtCloser
	s  *tracedStore
}

func (r *tracedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	id := r.s.tr.begin("shard.readat", r.s.parent.Load())
	n, err := r.ra.ReadAt(p, off)
	r.s.tr.end(id, int64(n))
	return n, err
}

func (r *tracedReaderAt) Close() error { return r.ra.Close() }

// replayedJob is one job the replay built on the data dir's filesystem.
type replayedJob struct {
	label, short string
	plug         domain.Plugin
	store        *tracedStore
	manifest     *shard.Manifest
	key          []byte
}

// replayBuild runs one job the way draid's worker does — synthesize,
// the pipeline's stages, manifest commit, sidecar build — with a span
// around each layer call. label tells fixture F ("F") from the build
// rotation ("M") in span names.
func replayBuild(tr *tracer, dir, label string, spec domain.Spec) (*replayedJob, error) {
	short := shortName(spec.Domain)
	fs, err := shard.NewFSSink(filepath.Join(dir, label+"-"+short))
	if err != nil {
		return nil, err
	}
	st := &tracedStore{inner: fs, tr: tr}
	plug, err := domain.Lookup(spec.Domain)
	if err != nil {
		return nil, err
	}
	suffix := "." + label + "." + short
	root := tr.begin("job"+suffix, 0)
	defer tr.end(root, 0)
	st.parent.Store(root)

	id := tr.begin("synth"+suffix, root)
	run, err := plug.Build(spec, st)
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	var stages []pipeline.Stage
	for _, s := range run.Pipeline.Stages() {
		s := s
		stages = append(stages, pipeline.StageFunc{StageName: s.Name(), StageKind: s.Kind(), Fn: func(ds *pipeline.Dataset) error {
			id := tr.begin("stage."+s.Kind().String()+suffix, root)
			st.parent.Store(id)
			err := s.Run(ds)
			st.parent.Store(root)
			tr.end(id, 0)
			return err
		}})
	}
	p, err := pipeline.New(run.Pipeline.Name(), stages...)
	if err != nil {
		return nil, err
	}
	p.Thresholds = run.Pipeline.Thresholds
	p.Category = run.Pipeline.Category
	snaps, err := p.Run(run.Dataset)
	if err != nil {
		return nil, err
	}
	if n := len(snaps); n == 0 || snaps[n-1].Assessment.Level != aiReadyLevel {
		return nil, fmt.Errorf("replay %s %s: pipeline ended below readiness level %d", label, short, aiReadyLevel)
	}
	m, err := plug.Manifest(run.Dataset)
	if err != nil {
		return nil, err
	}
	if err := st.writeManifest(m); err != nil {
		return nil, err
	}
	id = tr.begin("sidecar.build"+suffix, root)
	st.parent.Store(id)
	_, err = domain.BuildShardSidecars(plug, st, m, run.Key)
	st.parent.Store(root)
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	return &replayedJob{label: label, short: short, plug: plug, store: st, manifest: m, key: run.Key}, nil
}

// replayRead opens every sidecar of a replayed job the way a cold frame
// stream does — decrypting sealed ones whole, range-opening plaintext
// ones — then checks the payload CRC and reads every record range.
func replayRead(tr *tracer, j *replayedJob) error {
	root := tr.begin("read."+j.label+"."+j.short, 0)
	defer tr.end(root, 0)
	st := j.store
	for _, info := range j.manifest.Shards {
		name := domain.SidecarName(info.Name)
		var ra shard.ReaderAtCloser
		var size int64
		if j.key != nil {
			id := tr.begin("decrypt", root)
			st.parent.Store(id)
			rc, err := j.plug.Opener(st, j.key).Open(name)
			var b []byte
			if err == nil {
				b, err = io.ReadAll(rc)
				rc.Close()
			}
			st.parent.Store(root)
			tr.end(id, int64(len(b)))
			if err != nil {
				return err
			}
			ra, size = nopCloserAt{bytes.NewReader(b)}, int64(len(b))
		} else {
			st.parent.Store(root)
			var err error
			ra, size, err = st.OpenRange(name)
			if err != nil {
				return err
			}
		}
		id := tr.begin("sidecar.open", root)
		st.parent.Store(id)
		sc, err := domain.OpenSidecar(ra, size)
		st.parent.Store(root)
		tr.end(id, 0)
		if err == nil && sc.Count() != info.Records {
			err = fmt.Errorf("sidecar %s holds %d records, manifest %d", name, sc.Count(), info.Records)
		}
		if err == nil {
			id = tr.begin("sidecar.verify", root)
			st.parent.Store(id)
			err = sc.VerifyPayload()
			st.parent.Store(root)
			tr.end(id, sc.PayloadLen())
		}
		if err == nil {
			id = tr.begin("sidecar.read", root)
			st.parent.Store(id)
			err = sc.WriteRange(io.Discard, 0, sc.Count())
			st.parent.Store(root)
			tr.end(id, sc.PayloadLen())
		}
		ra.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

type nopCloserAt struct{ *bytes.Reader }

func (nopCloserAt) Close() error { return nil }

// replayCodec runs a replayed job's records through its codec the way
// both wires serve them, in batches of the server's default size:
// decode, NDJSON line plus json.Marshal, frame payload encode, frame
// payload decode, and the frame envelope.
func replayCodec(tr *tracer, j *replayedJob) error {
	c := j.plug.Codec
	kind := c.Kind()
	var raw [][]byte
	err := shard.ReadAll(j.plug.Opener(j.store.inner, j.key), j.manifest, func(_ string, rec []byte) error {
		raw = append(raw, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		return err
	}
	root := tr.begin("codec."+j.label+"."+j.short, 0)
	defer tr.end(root, 0)
	const batch = 32
	for lo := 0; lo < len(raw); lo += batch {
		hi := min(lo+batch, len(raw))
		var n int64
		id := tr.begin("codec.decode."+kind, root)
		recs := make([]any, 0, hi-lo)
		for _, r := range raw[lo:hi] {
			v, _, err := c.Decode(r)
			if err != nil {
				return err
			}
			recs = append(recs, v)
			n += int64(len(r))
		}
		tr.end(id, n)

		h := domain.BatchHeader{Batch: lo / batch, Cursor: fmt.Sprintf("%d:%d", lo, hi), Kind: kind}
		id = tr.begin("ndjson.line."+kind, root)
		line, err := c.Line(h, recs)
		var jb []byte
		if err == nil {
			jb, err = json.Marshal(line)
		}
		tr.end(id, int64(len(jb)+1))
		if err != nil {
			return err
		}

		id = tr.begin("frame.encode."+kind, root)
		payload, err := c.AppendFramePayload(nil, recs)
		tr.end(id, int64(len(payload)))
		if err != nil {
			return err
		}
		id = tr.begin("frame.payload_decode."+kind, root)
		back, err := c.DecodeFramePayload(payload, len(recs))
		tr.end(id, int64(len(payload)))
		if err != nil {
			return err
		}
		if len(back) != len(recs) {
			return fmt.Errorf("%s: frame payload decoded %d of %d records", kind, len(back), len(recs))
		}

		// One envelope is ~100 ns, so a span covers 256 calls.
		const envCalls = 256
		id = tr.begin("envelope", root)
		for i := 0; i < envCalls; i++ {
			if _, err := domain.FrameEnvelope(h, len(recs), len(payload)); err != nil {
				return err
			}
		}
		tr.end(id, envCalls)
	}
	return nil
}

// replayLedger appends to a fresh audit ledger on the data dir's
// filesystem with the default batch and flush window, first from one
// appender and then from two concurrent ones.
func replayLedger(tr *tracer, dir string) error {
	for _, appenders := range []int{1, 2} {
		id := tr.begin("ledger.open", 0)
		l, err := ledger.Open(ledger.Config{Path: filepath.Join(dir, fmt.Sprintf("audit-%d.log", appenders))})
		tr.end(id, 0)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("ledger.append.%d", appenders)
		const perAppender = 200
		var wg sync.WaitGroup
		errs := make(chan error, appenders)
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perAppender; i++ {
					id := tr.begin(name, 0)
					_, err := l.Append(ledger.TypeStream, benchTenant, "job-replay", "cursor=0:0 batch_size=32")
					tr.end(id, 0)
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		cerr := l.Close()
		if err := <-errs; err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}

// replayAuth times bearer-token authentication against a registry of
// the bench tenant and an admin, in spans of 100 calls.
func replayAuth(tr *tracer) error {
	reg, err := tenant.NewRegistry([]*tenant.Tenant{
		{ID: benchTenant, Token: benchToken},
		{ID: "admin", Token: "drbench-admin-token", Admin: true},
	})
	if err != nil {
		return err
	}
	const calls = 100
	for i := 0; i < 200; i++ {
		id := tr.begin("tenant.auth", 0)
		for k := 0; k < calls; k++ {
			if _, ok := reg.Authenticate(benchToken); !ok {
				tr.end(id, 0)
				return fmt.Errorf("tenant: bench token rejected")
			}
		}
		tr.end(id, calls)
	}
	return nil
}

// layerMetrics turns the replay's spans into the per-layer metrics.
// Timings are self times: a stage's time excludes the shard I/O its
// spans' children cover, and so on.
func layerMetrics(views []spanView) map[string]metric {
	out := map[string]metric{}
	all := aggregate(views, nil)
	underM := map[int64]bool{}
	jobOf := map[int64]string{}
	for _, v := range views {
		if v.Parent == 0 && strings.HasPrefix(v.Name, "job.M.") {
			underM[v.Trace] = true
			jobOf[v.Trace] = strings.TrimPrefix(v.Name, "job.M.")
		}
	}
	build := aggregate(views, func(v spanView) bool { return underM[v.Trace] })
	msOf := func(a *layerAgg) float64 {
		if a == nil {
			return 0
		}
		return ms(a.own)
	}
	for _, dn := range domainNames {
		d := dn.short
		out["synth_ms."+d] = metric{msOf(build["synth.M."+d]), "ms"}
		for _, k := range stageKinds {
			out["stage_ms."+k.String()+"."+d] = metric{msOf(build["stage."+k.String()+".M."+d]), "ms"}
		}
		out["sidecar_build_ms."+d] = metric{msOf(build["sidecar.build.M."+d]), "ms"}
		syncs := 0
		for _, v := range views {
			if underM[v.Trace] && jobOf[v.Trace] == d && (v.Name == "shard.close" || v.Name == "shard.manifest") {
				syncs++
			}
		}
		out["shard.syncs_per_job."+d] = metric{float64(syncs), "count"}
	}
	if a := build["shard.create"]; a != nil {
		out["shard.create_us"] = metric{median(a.self), "us"}
	}
	if a := build["shard.write"]; a != nil {
		out["shard.write_MBps"] = metric{mbps(a.bytes, a.own), "MB/s"}
	}
	if a := build["shard.close"]; a != nil {
		out["shard.close_p50_us"] = metric{median(a.self), "us"}
	}
	read := aggregate(views, func(v spanView) bool { return !underM[v.Trace] })
	if a := read["shard.open"]; a != nil {
		out["shard.open_us"] = metric{median(a.self), "us"}
	}
	if a := read["shard.readat"]; a != nil {
		out["shard.readat_MBps"] = metric{mbps(a.bytes, a.own), "MB/s"}
	}
	if a := all["sidecar.open"]; a != nil {
		out["sidecar_open_us"] = metric{median(a.self), "us"}
	}
	if a := all["sidecar.verify"]; a != nil {
		out["sidecar_verify_MBps"] = metric{mbps(a.bytes, a.own), "MB/s"}
	}
	if a := all["decrypt"]; a != nil {
		out["decrypt_MBps"] = metric{mbps(a.bytes, a.own), "MB/s"}
	}
	for _, k := range wireKinds {
		for _, l := range []struct{ span, name string }{
			{"codec.decode.", "decode_MBps."},
			{"ndjson.line.", "ndjson_line_MBps."},
			{"frame.encode.", "frame_encode_MBps."},
			{"frame.payload_decode.", "frame_payload_decode_MBps."},
		} {
			if a := all[l.span+k]; a != nil {
				out[l.name+k] = metric{mbps(a.bytes, a.own), "MB/s"}
			}
		}
	}
	if a := all["envelope"]; a != nil {
		out["envelope_ns"] = metric{float64(a.own.Nanoseconds()) / float64(a.bytes), "ns"}
	}
	for _, n := range []string{"1", "2"} {
		if a := all["ledger.append."+n]; a != nil {
			out["ledger.append_p50_us."+n] = metric{median(a.self), "us"}
			out["ledger.append_p99_us."+n] = metric{quantile(a.self, 0.99), "us"}
		}
	}
	if a := all["tenant.auth"]; a != nil {
		per := make([]float64, len(a.self))
		for i, us := range a.self {
			per[i] = us * 1000 / 100
		}
		out["tenant.auth_ns"] = metric{median(per), "ns"}
	}
	return out
}

// selfTimeTable renders every span name's count, total and self time,
// sorted by self time.
func selfTimeTable(views []spanView) string {
	agg := aggregate(views, nil)
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].own > agg[names[j]].own })
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := agg[n]
		fmt.Fprintf(&b, "%-36s %8d %12.3f %12.3f\n", n, a.count, ms(a.total), ms(a.own))
	}
	return b.String()
}

// replayLayers is the in-process half of a traced run: it replays the
// build rotation and fixture F through every layer with spans on, then
// the read side over F, the codecs, the ledger and tenant auth.
func replayLayers(tr *tracer, dir string, seed int64) error {
	var fixture []*replayedJob
	for _, sp := range mediumSpecs(seed) {
		if _, err := replayBuild(tr, dir, "M", sp); err != nil {
			return fmt.Errorf("replay M %s: %w", sp.Domain, err)
		}
	}
	for _, sp := range fixtureSpecs(seed) {
		j, err := replayBuild(tr, dir, "F", sp)
		if err != nil {
			return fmt.Errorf("replay F %s: %w", sp.Domain, err)
		}
		fixture = append(fixture, j)
	}
	for _, j := range fixture {
		if err := replayRead(tr, j); err != nil {
			return fmt.Errorf("replay read %s: %w", j.short, err)
		}
		if err := replayCodec(tr, j); err != nil {
			return fmt.Errorf("replay codec %s: %w", j.short, err)
		}
	}
	if err := replayLedger(tr, dir); err != nil {
		return fmt.Errorf("replay ledger: %w", err)
	}
	return replayAuth(tr)
}
