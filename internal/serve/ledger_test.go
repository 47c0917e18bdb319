package serve_test

// The serving ledger under sustained faulted load. An external test package,
// because the seeded open-loop stream comes from loadgen, which imports
// serve.

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// A seeded open-loop LeNet-5 stream over 100 ms through the degradation
// ladder under injected faults: the metrics ledger must agree with the
// simulator's own counts (requests = offered, completed = completed, rung
// counters sum to completions, shed counters sum to the shed records),
// nothing accepted may be dropped, and every answer must equal the CPU
// reference on whichever rung served it.
func TestSustainedFaultedStreamLedger(t *testing.T) {
	ref, err := serve.NewLadderRunner(serve.Config{Net: "lenet5"}, trace.NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	wantClass := make([]int, 10)
	for d := range wantClass {
		out, err := ref.Reference(nn.Digit(d))
		if err != nil {
			t.Fatal(err)
		}
		wantClass[d] = out.ArgMax()
	}
	// At 1000 QPS and rate 0.05 every request stays on the batch rung
	// (retries absorb the faults) and nothing is shed; rate 0.5 at 8000 QPS
	// drives requests down to solo and cpuref and overflows the queues, so
	// the rung and shed identities are checked on nonzero counts too.
	for _, c := range []struct {
		seed      int64
		rate, qps float64
	}{{1, 0.05, 1000}, {2, 0.05, 1000}, {1, 0.5, 8000}} {
		seed := c.seed
		cfg := serve.Config{
			Net: "lenet5", Board: "S10SX", BatchN: 8, DeadlineUS: 500, Workers: 2,
			FaultSeed: seed, FaultRate: c.rate,
		}
		tc := trace.NewCollector()
		runner, err := serve.NewLadderRunner(cfg, tc)
		if err != nil {
			t.Fatal(err)
		}
		profile := loadgen.Profile{
			Seed:    seed,
			Stages:  []loadgen.Stage{{QPS: c.qps, DurUS: 100_000}},
			Tenants: []loadgen.Tenant{{Name: "alpha", Weight: 0.6}, {Name: "beta", Weight: 0.4}},
		}
		// Arrival i carries digit i%10; request IDs follow arrival order.
		res := serve.RunSim(cfg, runner, profile.Arrivals(func(i int) *tensor.Tensor { return nn.Digit(i % 10) }), tc)

		m := tc.Metrics()
		count := func(names ...string) int64 {
			var n int64
			for _, name := range names {
				n += m.Counter(name).Value()
			}
			return n
		}
		if res.Offered == 0 || res.Completed == 0 {
			t.Fatalf("seed %d: offered %d, completed %d: the stream did not run", seed, res.Offered, res.Completed)
		}
		if got := count("serve.requests"); got != int64(res.Offered) {
			t.Errorf("seed %d: serve.requests = %d, offered %d", seed, got, res.Offered)
		}
		if got := count("serve.completed"); got != int64(res.Completed) {
			t.Errorf("seed %d: serve.completed = %d, completed %d", seed, got, res.Completed)
		}
		if got := count("serve.rung."+serve.RungBatch, "serve.rung."+serve.RungSolo,
			"serve.rung."+serve.RungCPURef); got != int64(res.Completed) {
			t.Errorf("seed %d: rung counters sum to %d, completed %d", seed, got, res.Completed)
		}
		if got := count("serve.shed.tenant_queue", "serve.shed.overload",
			"serve.shed.draining"); got != int64(len(res.Shed)) {
			t.Errorf("seed %d: shed counters sum to %d, %d shed records", seed, got, len(res.Shed))
		}
		if c.rate >= 0.5 && (len(res.Shed) == 0 || count("serve.rung."+serve.RungSolo, "serve.rung."+serve.RungCPURef) == 0) {
			t.Errorf("seed %d: %d shed, and %d request(s) left the batch rung at rate %g; want both nonzero",
				seed, len(res.Shed), count("serve.rung."+serve.RungSolo, "serve.rung."+serve.RungCPURef), c.rate)
		}
		if res.DrainDropped != 0 || res.Accepted != res.Completed {
			t.Errorf("seed %d: drain dropped %d, accepted %d, completed %d", seed, res.DrainDropped, res.Accepted, res.Completed)
		}
		if count("serve.faults") == 0 {
			t.Errorf("seed %d: no fault was injected at rate %g", seed, c.rate)
		}
		for _, r := range res.Responses {
			if want := wantClass[(r.ID-1)%10]; r.Err != nil || r.ArgMax != want {
				t.Fatalf("seed %d: request %d (rung %s): argmax %d err %v, reference says %d",
					seed, r.ID, r.Rung, r.ArgMax, r.Err, want)
			}
		}
	}
}
