package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded span. Spans of one trace share Trace (the ID
// of its root); times are nanoseconds since the tracer started.
type spanRec struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 starts a new trace).
func (t *tracer) begin(name string, parent int64) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, spanRec{Trace: trace, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id, crediting it with n bytes of work.
func (t *tracer) end(id, n int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Bytes = n
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	id := t.begin(name, parent)
	t.mu.Lock()
	t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
	return id
}

// streamSpans records one client stream: a root span with the wait
// for response headers, the wait for the first batch, and each later
// batch as children.
func (t *tracer) streamSpans(sr *streamRead) {
	last := sr.headers
	if n := len(sr.batches); n > 0 {
		last = sr.batches[n-1]
	}
	root := t.record("client.stream", 0, sr.sent, last)
	t.record("client.open", root, sr.sent, sr.headers)
	if len(sr.batches) > 0 {
		t.record("client.first_batch", root, sr.headers, sr.batches[0])
	}
	for i := 1; i < len(sr.batches); i++ {
		t.record("client.batch", root, sr.batches[i-1], sr.batches[i])
	}
}

// spanView is a closed span with its self time: its duration minus
// the part of its interval that its children cover.
type spanView struct {
	spanRec
	self time.Duration
}

func (s spanView) dur() time.Duration { return time.Duration(s.End - s.Start) }

// views computes self times for every closed span.
func (t *tracer) views() []spanView {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent > 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]spanView, 0, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curS, curE int64
		curE = -1
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out = append(out, spanView{spanRec: s, self: time.Duration(s.End - s.Start - covered)})
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerAgg sums spans by name.
type layerAgg struct {
	count      int
	total, own time.Duration
	bytes      int64
	self       []float64 // per span self time, microseconds
}

func aggregate(views []spanView, keep func(spanView) bool) map[string]*layerAgg {
	out := map[string]*layerAgg{}
	for _, v := range views {
		if keep != nil && !keep(v) {
			continue
		}
		a := out[v.Name]
		if a == nil {
			a = &layerAgg{}
			out[v.Name] = a
		}
		a.count++
		a.total += v.dur()
		a.own += v.self
		a.bytes += v.Bytes
		a.self = append(a.self, float64(v.self)/float64(time.Microsecond))
	}
	return out
}
