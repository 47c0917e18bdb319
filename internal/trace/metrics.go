package trace

// A lightweight metrics registry: named counters, gauges and histograms with
// deterministic text/JSON dumps. The runtime publishes what the thesis's
// evaluation reads off its timelines — kernel occupancy, channel stall %,
// PCIe transfer bandwidth — plus operational counters from the DSE and
// resilience layers (candidates/sec, compile-cache hit ratio, retries,
// fallbacks). All types are safe for concurrent use, and a nil *Registry is
// inert so callers can publish unconditionally.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the current value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 before any Set). Nil-safe.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram tracks the distribution of observed values as count / sum / min /
// max. It deliberately stores no samples: observations arrive per kernel
// launch and per transfer, and the dump must stay cheap and deterministic.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Snapshot returns the current count/sum/min/max. Nil-safe.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	return s
}

// HistSnapshot is a point-in-time summary of a Histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Registry holds named metrics. Get-or-create accessors make call sites
// one-liners; the same name always returns the same metric. A nil *Registry
// returns nil metrics, whose methods are in turn nil-safe, so an untraced run
// pays only pointer checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it on first use.
// Nil-safe: a nil registry returns a nil (inert) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use. Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// snapshot copies the metric maps under the lock so dumps never race with
// concurrent publishers.
func (r *Registry) snapshot() (cs map[string]*Counter, gs map[string]*Gauge, hs map[string]*Histogram) {
	cs, gs, hs = map[string]*Counter{}, map[string]*Gauge{}, map[string]*Histogram{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		cs[k] = v
	}
	for k, v := range r.gauges {
		gs[k] = v
	}
	for k, v := range r.hists {
		hs[k] = v
	}
	return cs, gs, hs
}

// sortedKeys returns the keys of a map in sorted order — every dump walks
// maps in this order so output is deterministic (the same discipline as the
// ProfileOps fix).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// DumpText renders all metrics as aligned text, sections and names sorted.
// Nil-safe: a nil registry dumps an empty string.
func (r *Registry) DumpText() string {
	if r == nil {
		return ""
	}
	cs, gs, hs := r.snapshot()
	var b strings.Builder
	if len(cs) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(cs) {
			fmt.Fprintf(&b, "  %-32s %d\n", k, cs[k].Value())
		}
	}
	if len(gs) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range sortedKeys(gs) {
			fmt.Fprintf(&b, "  %-32s %.4g\n", k, gs[k].Value())
		}
	}
	if len(hs) > 0 {
		b.WriteString("histograms:\n")
		for _, k := range sortedKeys(hs) {
			s := hs[k].Snapshot()
			fmt.Fprintf(&b, "  %-32s n=%d mean=%.4g min=%.4g max=%.4g\n",
				k, s.Count, s.Mean, s.Min, s.Max)
		}
	}
	return b.String()
}

// DumpJSON renders all metrics as a JSON object with "counters", "gauges"
// and "histograms" keys. encoding/json emits map keys sorted, so the dump is
// byte-deterministic for the same metric values. Nil-safe.
func (r *Registry) DumpJSON() ([]byte, error) {
	out := struct {
		Counters   map[string]int64        `json:"counters"`
		Gauges     map[string]float64      `json:"gauges"`
		Histograms map[string]HistSnapshot `json:"histograms"`
	}{map[string]int64{}, map[string]float64{}, map[string]HistSnapshot{}}
	if r != nil {
		cs, gs, hs := r.snapshot()
		for k, c := range cs {
			out.Counters[k] = c.Value()
		}
		for k, g := range gs {
			out.Gauges[k] = g.Value()
		}
		for k, h := range hs {
			out.Histograms[k] = h.Snapshot()
		}
	}
	return json.MarshalIndent(out, "", "  ")
}
