package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into the
// library's layers. Spans are kept in memory and written out once, at the
// end of the run. A nil *tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the index of the enclosing span (-1
// for a root) and Req the request the call served (-1 for none).
type span struct {
	Name       string
	Start, End time.Duration // since the tracer started; End < 0 while open
	Parent     int
	Req        int64
}

// noSpan is the handle a nil tracer hands out.
const noSpan = -1

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, req int64, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// durations returns the lengths of every closed span with the name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// summary returns per-name totals of span time and self time (a span's
// length minus the part of it its children cover), largest self first.
func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	by := map[string]*spanSummary{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		e := by[s.Name]
		if e == nil {
			e = &spanSummary{Name: s.Name}
			by[s.Name] = e
		}
		e.Count++
		e.Total += s.End - s.Start
		e.Self += self[i]
	}
	out := make([]spanSummary, 0, len(by))
	for _, e := range by {
		out = append(out, *e)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Self != out[b].Self {
			return out[a].Self > out[b].Self
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// selfTimes returns each closed span's length minus the union of its
// children's intervals clipped to it.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write stores the spans as Chrome trace-event JSON (open it in
// chrome://tracing or Perfetto); each event carries its id, parent,
// request and self time in args.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.spans
	self := selfTimes(spans)
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, `{"traceEvents":[`)
	enc := json.NewEncoder(bw)
	first := true
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		if err := enc.Encode(map[string]interface{}{
			"name": s.Name, "ph": "X", "pid": 1, "tid": 1,
			"ts": us(s.Start), "dur": us(s.End - s.Start),
			"args": map[string]interface{}{"id": i, "parent": s.Parent, "req": s.Req, "self_us": us(self[i])},
		}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
