package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers get-or-create and publication from many
// goroutines; run under -race it proves the registry needs no external
// locking (the host publishes from concurrently retried images).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.count").Inc()
				r.Gauge("shared.gauge").Set(float64(i))
				r.Histogram("shared.hist").Observe(float64(i))
				r.Counter(fmt.Sprintf("worker.%d", w)).Add(2)
				_ = r.DumpText()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	s := r.Histogram("shared.hist").Snapshot()
	if s.Count != workers*iters || s.Min != 0 || s.Max != iters-1 {
		t.Fatalf("hist snapshot = %+v", s)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter(fmt.Sprintf("worker.%d", w)).Value(); got != 2*iters {
			t.Fatalf("worker.%d = %d, want %d", w, got, 2*iters)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := &Histogram{}
	if s := h.Snapshot(); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for _, v := range []float64{4, 2, 6} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 12 || s.Mean != 4 || s.Min != 2 || s.Max != 6 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestDumpTextSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz.last").Inc()
	r.Counter("aa.first").Inc()
	r.Gauge("mid.gauge").Set(1.5)
	r.Histogram("hh.hist").Observe(3)
	out := r.DumpText()
	if strings.Index(out, "aa.first") > strings.Index(out, "zz.last") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
	for _, want := range []string{"counters:", "gauges:", "histograms:", "mid.gauge", "n=1 mean=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(0.25)
	r.Histogram("h").Observe(10)
	raw, err := r.DumpJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Counters   map[string]int64        `json:"counters"`
		Gauges     map[string]float64      `json:"gauges"`
		Histograms map[string]HistSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, raw)
	}
	if got.Counters["c"] != 7 || got.Gauges["g"] != 0.25 || got.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost values: %+v", got)
	}
}

func TestNilRegistryInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 {
		t.Fatal("nil registry should read zero")
	}
	if r.DumpText() != "" {
		t.Fatal("nil registry should dump empty text")
	}
	raw, err := r.DumpJSON()
	if err != nil {
		t.Fatalf("nil DumpJSON: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("nil DumpJSON invalid: %v", err)
	}
}
