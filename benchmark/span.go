package main

// The benchmark's own in-memory span recorder. Spans are recorded from
// outside the program, around the calls into each layer, and only in the
// traced pass; the end-to-end pass runs with a nil recorder, whose methods
// do nothing.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval. Spans of one request share Req; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID     int
	Parent int
	Name   string
	Req    int64
	// Lane keeps overlapping spans apart in the trace viewer (request id,
	// worker slot, client number).
	Lane  int64
	Start time.Duration
	End   time.Duration
}

type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its ID so children can name it as
// their parent.
func (r *recorder) add(name string, parent int, req, lane int64, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Lane: lane,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// reserve allocates a span whose end is not known yet (a parent that must
// exist before its children are recorded); finish closes it.
func (r *recorder) reserve(name string, parent int, req, lane int64, start time.Time) int {
	return r.add(name, parent, req, lane, start, start)
}

func (r *recorder) finish(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.t0)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover
// (children are clipped to the parent and overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// writeChromeTrace writes the spans as Chrome-trace JSON ("X" events,
// microsecond timestamps), openable in ui.perfetto.dev.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int64{"id": int64(s.ID), "parent": int64(s.Parent), "req": s.Req}}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
