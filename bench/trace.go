package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are nanoseconds since the tracer was made.
// Parent is the id of the span that caused this one (0: none); spans of
// one request share Query (0: not part of a request).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced windows run the same code.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	queries int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newQuery returns the identifier the spans of one more request share.
func (t *tracer) newQuery() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	return t.queries
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, query int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Query: query})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed records fn as a parentless span outside any request.
func (t *tracer) timed(name string, fn func()) {
	id := t.begin(name, 0, 0)
	fn()
	t.end(id)
}

// millis lists the durations, in milliseconds, of every span of a name.
func (t *tracer) millis(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// and may stick out of the parent; only the union of their intervals
// inside the parent is subtracted.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerTime summarises the spans of one name for the trace file.
type layerTime struct {
	Count    int     `json:"count"`
	TotalMs  float64 `json:"total_ms"`
	SelfMs   float64 `json:"self_ms"`
	MedianMs float64 `json:"median_ms"`
}

// write stores every span plus the per-name totals and self times.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	durations := map[string][]float64{}
	layers := map[string]*layerTime{}
	for _, s := range spans {
		l := layers[s.Name]
		if l == nil {
			l = &layerTime{}
			layers[s.Name] = l
		}
		ms := float64(s.End-s.Start) / 1e6
		l.Count++
		l.TotalMs += ms
		l.SelfMs += float64(self[s.ID]) / 1e6
		durations[s.Name] = append(durations[s.Name], ms)
	}
	for name, l := range layers {
		l.MedianMs = median(durations[name])
	}
	data, err := json.Marshal(struct {
		Layers map[string]*layerTime `json:"layers"`
		Spans  []span                `json:"spans"`
	}{layers, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
