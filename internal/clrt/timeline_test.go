package clrt

import (
	"strings"
	"testing"
)

// TestTimelineSinceBoundaries pins the cutoff semantics event by event: an
// event belongs to the window iff any positive part of it lies at or after
// sinceUS. The straddling case is the regression that motivated the table —
// the old filter (StartUS >= sinceUS) silently hid in-flight kernels from
// the steady-state view.
func TestTimelineSinceBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		start    float64
		end      float64
		sinceUS  float64
		rendered bool
	}{
		{"entirely before cutoff", 0, 50, 100, false},
		{"ends exactly at cutoff", 0, 100, 100, false},
		{"straddles cutoff", 50, 150, 100, true},
		{"starts exactly at cutoff", 100, 150, 100, true},
		{"entirely after cutoff", 120, 150, 100, true},
		{"zero-span at cutoff", 100, 100, 100, true},
		{"zero-span before cutoff", 60, 60, 100, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// An anchor event keeps the window non-empty so "(no events)"
			// never masks the verdict on the probe event.
			anchor := &Event{Kind: "write", Name: "anchor", StartUS: tc.sinceUS, EndUS: tc.sinceUS + 200}
			probe := &Event{Kind: "kernel", Name: "probe", StartUS: tc.start, EndUS: tc.end}
			c := &Context{events: []*Event{anchor, probe}}
			tl := c.TimelineSince(40, tc.sinceUS)
			if got := strings.Contains(tl, "kernel probe"); got != tc.rendered {
				t.Fatalf("rendered=%v, want %v:\n%s", got, tc.rendered, tl)
			}
		})
	}
}

// TestTimelineSinceClipsStraddlingEvent checks a straddler is clipped to the
// window (not drawn from before it) and that the recorded event itself is
// not mutated by the rendering.
func TestTimelineSinceClipsStraddlingEvent(t *testing.T) {
	straddler := &Event{Kind: "kernel", Name: "k", StartUS: 0, EndUS: 100}
	other := &Event{Kind: "write", Name: "w", StartUS: 50, EndUS: 200}
	c := &Context{events: []*Event{straddler, other}}
	tl := c.TimelineSince(40, 50)
	if straddler.StartUS != 0 {
		t.Fatalf("recorded event mutated: StartUS = %v", straddler.StartUS)
	}
	var lane string
	for _, line := range strings.Split(tl, "\n") {
		if strings.Contains(line, "kernel k") {
			lane = line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
		}
	}
	if lane == "" {
		t.Fatalf("straddling kernel missing from timeline:\n%s", tl)
	}
	// Window [50,200], clipped kernel spans [50,100]: the first third of the
	// lane. The second half of the lane must stay empty.
	if !strings.HasPrefix(lane, "#") {
		t.Fatalf("clipped kernel should start at the window's left edge: %q", lane)
	}
	if strings.ContainsRune(lane[len(lane)/2:], '#') {
		t.Fatalf("clipped kernel bar extends past its end: %q", lane)
	}
}

// TestTimelineHeaderUsPerCol checks the header divides the span by the
// number of columns actually used for bar scaling (width-1), matching the
// lane geometry.
func TestTimelineHeaderUsPerCol(t *testing.T) {
	// span 117 us over width 40: 117/39 = 3.0 us/col (the old width divisor
	// would print 2.9).
	c := &Context{events: []*Event{{Kind: "kernel", Name: "k", StartUS: 0, EndUS: 117}}}
	tl := c.TimelineSince(40, 0)
	if !strings.Contains(tl, "3.0 us/col") {
		t.Fatalf("header should report span/(width-1) us per column:\n%s", tl)
	}
}
