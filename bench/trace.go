package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the bench around the
// call (never inside the program under test). Parent is the id of the
// span that caused it, 0 for a root.
type span struct {
	ID, Parent int
	Track      int // Chrome-trace tid: spans of one goroutine share a track
	Name       string
	Start, End time.Duration // since the tracer's origin
}

// tracer keeps spans in memory until the traced pass ends. A nil
// *tracer records nothing, so one driver serves the traced and the
// untraced pass.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	run    string // shared by every span of one traced pass
	spans  []span
}

func newTracer(run string) *tracer {
	return &tracer{origin: time.Now(), run: run}
}

// begin opens a span on its parent's track and returns its id (0 on a
// nil tracer).
func (t *tracer) begin(name string, parent int) int {
	return t.open(name, parent, false)
}

// fork opens a span on a track of its own: the first span of a
// goroutine that runs beside its parent.
func (t *tracer) fork(name string, parent int) int {
	return t.open(name, parent, true)
}

func (t *tracer) open(name string, parent int, ownTrack bool) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, t.newSpan(name, parent, ownTrack, now, -1))
	return len(t.spans)
}

// newSpan numbers a span and places it on a track. Caller holds t.mu.
func (t *tracer) newSpan(name string, parent int, ownTrack bool, start, end time.Duration) span {
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end}
	s.Track = s.ID
	if parent != 0 && !ownTrack {
		s.Track = t.spans[parent-1].Track
	}
	return s
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark records an already-measured interval (class spans reconstructed
// from Progress callback timestamps).
func (t *tracer) mark(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, t.newSpan(name, parent, false, start.Sub(t.origin), end.Sub(t.origin)))
}

// seconds returns the duration of one span.
func (t *tracer) seconds(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return (s.End - s.Start).Seconds()
}

// selfSeconds sums, per span name, each span's duration minus the part
// of it that its child spans cover (children of one parent may overlap
// when they ran on different goroutines, so the cover is a union).
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start - covered).Seconds()
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace format;
// ts and dur are microseconds. The parent link and the pass identifier
// travel in args, where chrome://tracing and Perfetto display them.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the pass as a Chrome trace file.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Track,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": t.run},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
