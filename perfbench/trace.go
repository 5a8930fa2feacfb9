package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	req        int32
	parent     int32
	start, end int64 // ns since the tracer's origin
	segs       int32 // segments in the snapshot a similarity.best span scored
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing; a tracer with detail off records only roots, which is how the
// replay measures itself untraced with the same two clock reads per
// request that a traced root costs.
type tracer struct {
	t0     time.Time
	detail bool
	spans  []span
}

func newTracer(detail bool) *tracer {
	return &tracer{t0: time.Now(), detail: detail, spans: make([]span, 0, 1<<16)}
}

// Parent values of begin: root opens a root span; noSpan is what begin
// returns when it records nothing, so the children of an unrecorded span
// are unrecorded too.
const (
	root   = -1
	noSpan = -2
)

func (t *tracer) begin(name string, req, parent int) int {
	if t == nil || parent == noSpan || (parent != root && !t.detail) {
		return noSpan
	}
	t.spans = append(t.spans, span{name: name, req: int32(req), parent: int32(parent), start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// layerTimes is the per-name view of a finished trace.
type layerTimes struct {
	dur, self map[string][]float64 // ns
	// covered and rootTotal sum, over all roots, the time their direct
	// children cover and the roots' own durations: the layer-sum check.
	covered, rootTotal float64
}

func (t *tracer) layers() layerTimes {
	lt := layerTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += float64(s.end - s.start)
		}
	}
	for i, s := range t.spans {
		d := float64(s.end - s.start)
		lt.dur[s.name] = append(lt.dur[s.name], d)
		lt.self[s.name] = append(lt.self[s.name], d-child[i])
		if s.parent < 0 && child[i] > 0 {
			lt.covered += child[i]
			lt.rootTotal += d
		}
	}
	return lt
}

// roots returns the durations (ns) of the root spans named name.
func (t *tracer) roots(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.parent < 0 && s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		err = enc.Encode(struct {
			Name     string `json:"name"`
			Req      int32  `json:"req"`
			Parent   int32  `json:"parent"`
			StartNs  int64  `json:"start_ns"`
			EndNs    int64  `json:"end_ns"`
			Segments int32  `json:"segments,omitempty"`
		}{s.name, s.req, s.parent, s.start, s.end, s.segs})
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
