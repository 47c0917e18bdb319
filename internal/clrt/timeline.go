package clrt

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// TimelineSince renders the events starting at or after sinceUS as an ASCII
// Gantt chart: one row per distinct command (kernel name or buffer
// transfer), bars spanning [StartUS, EndUS]. It makes queue serialization,
// channel-pipeline overlap and the PCIe bottleneck visible at a glance — the
// picture behind the thesis's serial-vs-concurrent-execution results. A
// nonzero sinceUS excludes one-time setup transfers (parameter loading) from
// the steady-state picture.
func (c *Context) TimelineSince(width int, sinceUS float64) string {
	events := make([]*Event, 0, len(c.events))
	for _, e := range c.events {
		switch {
		case e.StartUS >= sinceUS:
			events = append(events, e)
		case e.EndUS > sinceUS:
			// The event straddles the cutoff (an in-flight kernel or transfer).
			// Clip it to the window rather than dropping it — hiding in-flight
			// work makes the steady-state view lie about occupancy. Copy so the
			// recorded event is not mutated.
			clipped := *e
			clipped.StartUS = sinceUS
			events = append(events, &clipped)
		}
	}
	if len(events) == 0 {
		return "(no events)\n"
	}
	if width < 20 {
		width = 20
	}
	var t0, t1 float64
	t0 = math.Inf(1)
	for _, e := range events {
		if e.StartUS < t0 {
			t0 = e.StartUS
		}
		if e.EndUS > t1 {
			t1 = e.EndUS
		}
	}
	span := t1 - t0
	if span <= 0 {
		span = 1
	}

	type row struct {
		label string
		kind  string
		first float64
	}
	rowsByLabel := map[string]*row{}
	var rows []*row
	for _, e := range events {
		label := e.Kind + " " + e.Name
		r, ok := rowsByLabel[label]
		if !ok {
			r = &row{label: label, kind: e.Kind, first: e.StartUS}
			rowsByLabel[label] = r
			rows = append(rows, r)
		}
		if e.StartUS < r.first {
			r.first = e.StartUS
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].first < rows[j].first })

	glyph := map[string]byte{"kernel": '#', "write": 'W', "read": 'R'}
	lanes := map[string][]byte{}
	for _, r := range rows {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = '.'
		}
		lanes[r.label] = lane
	}
	for _, e := range events {
		lane := lanes[e.Kind+" "+e.Name]
		a := int(float64(width-1) * (e.StartUS - t0) / span)
		b := int(float64(width-1) * (e.EndUS - t0) / span)
		if b < a {
			b = a
		}
		g := glyph[e.Kind]
		if g == 0 {
			g = '?'
		}
		for i := a; i <= b && i < width; i++ {
			lane[i] = g
		}
	}

	maxLabel := 0
	for _, r := range rows {
		if len(r.label) > maxLabel {
			maxLabel = len(r.label)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %.0f us total (# kernel, W write, R read; %.1f us/col)\n",
		span, span/float64(width-1))
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-*s |%s|\n", maxLabel, r.label, lanes[r.label])
	}
	return b.String()
}
