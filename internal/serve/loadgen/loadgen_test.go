package loadgen

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// echoRunner is a minimal deterministic Runner: fixed service time, rung
// RungBatch, argmax 0.
type echoRunner struct{ serviceUS float64 }

func (e echoRunner) Run(b *serve.Batch) *serve.BatchOutcome {
	out := &serve.BatchOutcome{ServiceUS: e.serviceUS}
	for range b.Reqs {
		out.Outcomes = append(out.Outcomes, serve.Outcome{ArgMax: 0, Rung: serve.RungBatch})
	}
	return out
}

func testProfile(seed int64) Profile {
	return Profile{
		Seed:   seed,
		Stages: []Stage{{QPS: 1000, DurUS: 100_000}, {QPS: 4000, DurUS: 50_000}},
		Tenants: []Tenant{
			{Name: "alpha", Weight: 0.7},
			{Name: "beta", Weight: 0.3},
		},
	}
}

func TestArrivalsDeterministicAndSorted(t *testing.T) {
	in := func(i int) *tensor.Tensor { return nil }
	a := testProfile(7).Arrivals(in)
	b := testProfile(7).Arrivals(in)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths differ or empty: %d vs %d", len(a), len(b))
	}
	end := 0.0
	for _, st := range testProfile(7).Stages {
		end += st.DurUS
	}
	for i := range a {
		if a[i].AtUS != b[i].AtUS || a[i].Tenant != b[i].Tenant {
			t.Fatalf("arrival %d differs across identical seeds", i)
		}
		if i > 0 && a[i].AtUS < a[i-1].AtUS {
			t.Fatalf("arrivals out of order at %d", i)
		}
		if a[i].AtUS >= end {
			t.Fatalf("arrival %d past the ramp end", i)
		}
	}
	c := testProfile(8).Arrivals(in)
	if len(c) == len(a) && c[0].AtUS == a[0].AtUS {
		t.Fatal("different seeds produced the same stream")
	}
}

// The Poisson process should land near the configured rate: 1000*0.1s +
// 4000*0.05s = 300 expected arrivals; allow a generous stochastic band.
func TestArrivalsMatchOfferedRate(t *testing.T) {
	a := testProfile(3).Arrivals(func(i int) *tensor.Tensor { return nil })
	if n := len(a); math.Abs(float64(n)-300) > 60 {
		t.Fatalf("got %d arrivals, expected about 300", n)
	}
	alpha := 0
	for _, ar := range a {
		if ar.Tenant == "alpha" {
			alpha++
		}
	}
	if frac := float64(alpha) / float64(len(a)); frac < 0.5 || frac > 0.9 {
		t.Fatalf("alpha fraction %.2f, expected near 0.7", frac)
	}
}

// The whole load path — arrivals, simulated engine, summary — must be
// byte-identical across two runs with the same seed. JSON is the level the
// CI bench gates diff at, so that is where identity is asserted.
func TestSeededRunByteIdentical(t *testing.T) {
	run := func() []byte {
		prof := testProfile(11)
		cfg := serve.Config{BatchN: 4, DeadlineUS: 400, Workers: 2}
		tc := trace.NewCollector()
		res := serve.RunSim(cfg, echoRunner{serviceUS: 180}, prof.Arrivals(func(i int) *tensor.Tensor { return nil }), tc)
		sum := Summarize(prof, res, tc.Metrics())
		b, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different summary bytes:\n%s\n%s", a, b)
	}
	var sum Summary
	if err := json.Unmarshal(a, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Completed == 0 || sum.DrainDropped != 0 {
		t.Fatalf("summary implausible: completed=%d dropped=%d", sum.Completed, sum.DrainDropped)
	}
}

// Zero-duration stages contribute no arrivals and no weight; a ramp made
// entirely of them offers nothing without dividing by zero anywhere.
func TestZeroDurationStage(t *testing.T) {
	prof := Profile{
		Seed:    5,
		Stages:  []Stage{{QPS: 1000, DurUS: 0}, {QPS: 2000, DurUS: 50_000}, {QPS: 9999, DurUS: 0}},
		Tenants: []Tenant{{Name: "solo", Weight: 1}},
	}
	a := prof.Arrivals(func(i int) *tensor.Tensor { return nil })
	if len(a) == 0 {
		t.Fatal("non-empty middle stage produced no arrivals")
	}
	if got := prof.offeredQPS(); got != 2000 {
		t.Fatalf("offeredQPS = %v, want 2000 (zero-duration stages carry no weight)", got)
	}
	for i, ar := range a {
		if ar.AtUS >= 50_000 {
			t.Fatalf("arrival %d at %v lies beyond the only real stage", i, ar.AtUS)
		}
	}

	empty := Profile{Seed: 5, Stages: []Stage{{QPS: 1000, DurUS: 0}}, Tenants: prof.Tenants}
	if got := empty.Arrivals(func(i int) *tensor.Tensor { return nil }); len(got) != 0 {
		t.Fatalf("all-zero ramp produced %d arrivals", len(got))
	}
	if got := empty.offeredQPS(); got != 0 {
		t.Fatalf("all-zero ramp offeredQPS = %v, want 0", got)
	}
	res := serve.RunSim(serve.Config{BatchN: 4, DeadlineUS: 400, Workers: 1},
		echoRunner{serviceUS: 100}, empty.Arrivals(func(i int) *tensor.Tensor { return nil }), trace.NewCollector())
	sum := Summarize(empty, res, trace.NewCollector().Metrics())
	if sum.Offered != 0 || sum.Completed != 0 || sum.SustainedQPS != 0 {
		t.Fatalf("empty run summary not all-zero: %+v", sum)
	}
	if math.IsNaN(sum.ShedRate) || math.IsNaN(sum.MeanUS) || math.IsNaN(sum.P99US) {
		t.Fatal("empty run summary contains NaN")
	}
}

// A single request must survive the full pipeline: accepted, dispatched as
// a partial deadline batch, and summarized with all percentiles collapsing
// onto its one latency.
func TestSingleRequestRun(t *testing.T) {
	prof := Profile{Seed: 1, Stages: []Stage{{QPS: 1, DurUS: 1}}, Tenants: []Tenant{{Name: "solo", Weight: 1}}}
	arrivals := []serve.Arrival{{AtUS: 0, Tenant: "solo"}}
	tc := trace.NewCollector()
	res := serve.RunSim(serve.Config{BatchN: 8, DeadlineUS: 500, Workers: 1}, echoRunner{serviceUS: 70}, arrivals, tc)
	sum := Summarize(prof, res, tc.Metrics())
	if sum.Offered != 1 || sum.Accepted != 1 || sum.Completed != 1 {
		t.Fatalf("offered/accepted/completed = %d/%d/%d, want 1/1/1", sum.Offered, sum.Accepted, sum.Completed)
	}
	if sum.DrainDropped != 0 || sum.ShedCount != 0 {
		t.Fatalf("dropped=%d shed=%d, want 0,0", sum.DrainDropped, sum.ShedCount)
	}
	if sum.P50US != sum.P99US || sum.P50US != sum.MaxUS || sum.P50US != sum.MeanUS || sum.P50US <= 0 {
		t.Fatalf("single-sample percentiles disagree: p50=%v p99=%v max=%v mean=%v",
			sum.P50US, sum.P99US, sum.MaxUS, sum.MeanUS)
	}
	if sum.Batches != 1 || sum.BatchFill <= 0 {
		t.Fatalf("batches=%d fill=%v, want one partial batch", sum.Batches, sum.BatchFill)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		q, want float64
	}{{0.5, 20}, {0.99, 40}, {0.25, 10}, {1, 40}}
	for _, c := range cases {
		if got := Percentile(sorted, c.q); got != c.want {
			t.Fatalf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty slice should yield 0")
	}
}
