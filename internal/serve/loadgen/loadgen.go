// Package loadgen is a deterministic open-loop synthetic load generator for
// the continuous-batching server. Open-loop means arrivals come from a
// seeded Poisson process that does not wait for responses — the honest way
// to measure a server under load (a closed-loop driver self-throttles and
// hides queueing collapse). A Profile is a QPS ramp (stages) plus a weighted
// tenant mix; the same seed always produces the same arrival stream, so
// BENCH_serve.json and the ledger checks of
// serve.TestSustainedFaultedStreamLedger are reproducible byte for byte.
package loadgen

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Stage is one constant-rate segment of the QPS ramp.
type Stage struct {
	QPS   float64 `json:"qps"`
	DurUS float64 `json:"dur_us"`
}

// Tenant is one entry in the weighted tenant mix.
type Tenant struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// Profile is a deterministic workload description.
type Profile struct {
	Seed    int64    `json:"seed"`
	Stages  []Stage  `json:"stages"`
	Tenants []Tenant `json:"tenants"`
}

// rng is a splitmix64 stream — the same generator the fault injector uses,
// chosen for cross-platform determinism (no math/rand version drift).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float in (0,1]: never 0, so -log(u) is finite.
func (r *rng) float() float64 {
	return (float64(r.next()>>11) + 1) / float64(1<<53)
}

// Arrivals expands the profile into a time-sorted arrival stream. input(i)
// supplies the i-th request's image (callers cycle digits or seeded random
// images); inter-arrival gaps are exponential with each stage's rate.
func (p Profile) Arrivals(input func(i int) *tensor.Tensor) []serve.Arrival {
	r := &rng{s: uint64(p.Seed)*0x9e3779b97f4a7c15 + 1}
	totalW := 0.0
	for _, t := range p.Tenants {
		totalW += t.Weight
	}
	pickTenant := func() string {
		if len(p.Tenants) == 0 {
			return "default"
		}
		u := r.float() * totalW
		for _, t := range p.Tenants {
			if u <= t.Weight {
				return t.Name
			}
			u -= t.Weight
		}
		return p.Tenants[len(p.Tenants)-1].Name
	}
	var out []serve.Arrival
	base := 0.0
	i := 0
	for _, st := range p.Stages {
		end := base + st.DurUS
		if st.QPS <= 0 {
			base = end
			continue
		}
		t := base
		for {
			t += -math.Log(r.float()) / st.QPS * 1e6
			if t >= end {
				break
			}
			out = append(out, serve.Arrival{AtUS: t, Tenant: pickTenant(), Input: input(i)})
			i++
		}
		base = end
	}
	return out
}

// offeredQPS is the ramp's average offered rate.
func (p Profile) offeredQPS() float64 {
	total, weighted := 0.0, 0.0
	for _, st := range p.Stages {
		total += st.DurUS
		weighted += st.QPS * st.DurUS
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}

// Summary aggregates one simulated run into the figures BENCH_serve.json
// reports.
type Summary struct {
	Offered      int     `json:"offered"`
	OfferedQPS   float64 `json:"offered_qps"`
	Accepted     int     `json:"accepted"`
	Completed    int     `json:"completed"`
	Canceled     int     `json:"canceled"`
	ShedCount    int     `json:"shed"`
	ShedRate     float64 `json:"shed_rate"`
	SustainedQPS float64 `json:"sustained_qps"`
	P50US        float64 `json:"p50_us"`
	P95US        float64 `json:"p95_us"`
	P99US        float64 `json:"p99_us"`
	MeanUS       float64 `json:"mean_us"`
	MaxUS        float64 `json:"max_us"`
	// BatchFill is the mean batch-fill ratio (batch size / BatchN) over
	// dispatched batches.
	BatchFill float64 `json:"batch_fill"`
	Batches   int     `json:"batches"`
	// Rungs counts completions per degradation rung; Retries/Faults are the
	// device-level events the batch engine absorbed.
	Rungs        map[string]int `json:"rungs"`
	Retries      int            `json:"retries"`
	Faults       int            `json:"faults"`
	DrainDropped int            `json:"drain_dropped"`
	MakespanUS   float64        `json:"makespan_us"`
}

// Summarize reduces a SimResult (plus the run's metrics registry, for batch
// counts and absorbed-fault totals) to a Summary.
func Summarize(p Profile, res *serve.SimResult, reg *trace.Registry) Summary {
	s := Summary{
		Offered:      res.Offered,
		OfferedQPS:   p.offeredQPS(),
		Accepted:     res.Accepted,
		Completed:    res.Completed,
		Canceled:     res.Canceled,
		ShedCount:    len(res.Shed),
		DrainDropped: res.DrainDropped,
		MakespanUS:   res.MakespanUS,
		Rungs:        map[string]int{},
	}
	if res.Offered > 0 {
		s.ShedRate = float64(len(res.Shed)) / float64(res.Offered)
	}
	if res.MakespanUS > 0 {
		s.SustainedQPS = float64(res.Completed) / res.MakespanUS * 1e6
	}
	lat := make([]float64, 0, len(res.Responses))
	for _, r := range res.Responses {
		lat = append(lat, r.LatencyUS)
		s.Rungs[r.Rung]++
		s.MeanUS += r.LatencyUS
		if r.LatencyUS > s.MaxUS {
			s.MaxUS = r.LatencyUS
		}
	}
	if len(lat) > 0 {
		s.MeanUS /= float64(len(lat))
		sort.Float64s(lat)
		s.P50US = Percentile(lat, 0.50)
		s.P95US = Percentile(lat, 0.95)
		s.P99US = Percentile(lat, 0.99)
	}
	fill := reg.Histogram("serve.batch_fill").Snapshot()
	s.BatchFill = fill.Mean
	s.Batches = int(fill.Count)
	s.Retries = int(reg.Counter("serve.retries").Value())
	s.Faults = int(reg.Counter("serve.faults").Value())
	return s
}

// Percentile returns the q-th quantile of an ascending-sorted slice by
// nearest-rank (deterministic, no interpolation surprises).
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders the summary for terminal output.
func (s Summary) String() string {
	return fmt.Sprintf(
		"offered %d (%.0f qps) accepted %d completed %d shed %d (%.1f%%) | sustained %.0f qps | p50 %.0f us p99 %.0f us | fill %.2f over %d batches | dropped %d",
		s.Offered, s.OfferedQPS, s.Accepted, s.Completed, s.ShedCount, 100*s.ShedRate,
		s.SustainedQPS, s.P50US, s.P99US, s.BatchFill, s.Batches, s.DrainDropped)
}
