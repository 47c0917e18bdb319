package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedianOfRepetitionsRejectsAStall(t *testing.T) {
	// Four quiet repetitions and one that absorbed a scheduler stall: the
	// reported figure is the median, the stall shows only in the spread and
	// in the disturbed flag.
	r := reps{10.2, 10.4, 46.7, 10.3, 10.1}
	s := r.summarize()
	if s.Median != 10.3 || s.Min != 10.1 || s.Max != 46.7 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if got, want := r.disturbed(), []bool{false, false, true, false, false}; !reflect.DeepEqual(got, want) {
		t.Errorf("disturbed = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "queue", Start: ms(10), End: ms(30)},
		// Overlaps queue by 10 ms and sticks out of the parent by 20 ms:
		// only 30..100 is newly covered.
		{ID: 3, Parent: 1, Name: "run", Start: ms(20), End: ms(120)},
		{ID: 4, Parent: 3, Name: "kernel", Start: ms(40), End: ms(60)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"request": ms(10), "queue": ms(20), "run": ms(80), "kernel": ms(20)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.reserve("x", 0, 0, 0, time.Now())
	r.finish(id, time.Now())
	if id != 0 || r.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
}

// TestManifestMatchesSpec keeps BENCHMARK.json in step with spec.go and
// inside the driver's limits.
func TestManifestMatchesSpec(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromSpec any
	if err := json.Unmarshal(buf, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, _ := json.Marshal(manifest())
	if err := json.Unmarshal(gen, &fromSpec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromSpec) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v outside the limits", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q malformed", m.Name, m.Unit)
		}
	}
	if !hasSetup || len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("manifest outside the driver's limits")
	}
}

// TestQuickLenet is the smoke: a one-second http-lenet end-to-end pass
// answers every request correctly and yields every end-to-end metric.
func TestQuickLenet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real server for a few seconds")
	}
	res, err := runWorkload(options{workload: "http-lenet", seed: 1, seconds: 1, setupSamples: 1, start: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, def := range endToEnd {
		if v := res.Metrics[def.Name]; v.Value <= 0 || v.Clock != def.Clock {
			t.Errorf("%s = %+v, want a positive value on the %s clock", def.Name, v, def.Clock)
		}
	}
}
