package fleet

// The chaos failover contract: a board killed in the middle of a live
// request stream must cost zero responses and zero correctness. The fleet
// runner is driven through the real serving stack (loadgen arrival stream →
// serve.RunSim → Fleet.Run), a device-loss fault lands mid-stream, and the
// run must end with drain_dropped == 0, failover_dropped == 0, every
// response bit-identical to the CPU reference, and a ledger that attributes
// every rerouted image to its cause. Checked at multiple seeds, and each
// seed replayed to prove byte-determinism. It holds the contract that
// `fpgacnn fleet -kill-board` enforces at the command line.

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// chaosRun is everything one seeded chaos run produces.
type chaosRun struct {
	sum    loadgen.Summary
	rep    Report
	argmax []int   // per response, completion order
	ids    []int64 // per response, completion order
}

// runChaos replays a seeded 2-board lenet5 stream with s10sx-0 killed at
// killAtUS (no fault when killAtUS <= 0) and returns the full observable
// outcome.
func runChaos(t *testing.T, seed int64, killAtUS float64) chaosRun {
	t.Helper()
	tc := trace.NewCollector()
	var faults []fault.BoardFault
	if killAtUS > 0 {
		faults = append(faults, fault.BoardFault{Device: "s10sx-0", Kind: fault.DeviceLoss, AtUS: killAtUS})
	}
	fl, err := New(Config{
		Net:    "lenet5",
		Boards: []BoardSpec{{Board: "S10SX", Count: 2}},
		Faults: faults,
	}, tc)
	if err != nil {
		t.Fatal(err)
	}
	// Hot enough that batches overlap and routing must spread across both
	// boards (one board sustains ~4300 img/s at batch 4). -short trims the
	// stream so the race-detector run stays affordable.
	durUS := 60_000.0
	if testing.Short() {
		durUS = 24_000
	}
	prof := loadgen.Profile{
		Seed:    seed,
		Stages:  []loadgen.Stage{{QPS: 5000, DurUS: durUS}},
		Tenants: []loadgen.Tenant{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
	}
	// Digit-cycling inputs: arrival i carries digit i%10, and the engine
	// assigns request IDs in arrival order before any shed check, so a
	// response's expected class is recoverable from its ID alone.
	arr := prof.Arrivals(func(i int) *tensor.Tensor { return nn.Digit(i % 10) })
	cfg := serve.Config{Net: "lenet5", BatchN: 4, DeadlineUS: 500, Workers: fl.DeviceCount()}
	res := serve.RunSim(cfg, fl, arr, tc)
	run := chaosRun{
		sum: loadgen.Summarize(prof, res, tc.Metrics()),
		rep: fl.Report(),
	}
	for _, r := range res.Responses {
		if r.Err != nil {
			t.Fatalf("response %d failed: %v", r.ID, r.Err)
		}
		run.argmax = append(run.argmax, r.ArgMax)
		run.ids = append(run.ids, r.ID)
	}
	return run
}

func TestChaosKillMidStreamZeroDropBitIdentical(t *testing.T) {
	// Ground truth once: the CPU reference class for each digit.
	tcRef := trace.NewCollector()
	ref, err := New(Config{Net: "lenet5", Boards: []BoardSpec{{Board: "S10SX", Count: 1}}}, tcRef)
	if err != nil {
		t.Fatal(err)
	}
	wantClass := make([]int, 10)
	for d := 0; d < 10; d++ {
		out, err := ref.Reference(nn.Digit(d))
		if err != nil {
			t.Fatal(err)
		}
		wantClass[d] = out.ArgMax()
	}

	seeds := []int64{1, 2}
	killAt := 30_000.0
	if testing.Short() {
		killAt = 12_000
	}
	for _, seed := range seeds {
		run := runChaos(t, seed, killAt)

		// Zero-drop, both ways it could leak: the engine ledger and the
		// fleet's own failover accounting.
		if run.sum.DrainDropped != 0 {
			t.Fatalf("seed %d: drain_dropped = %d, want 0", seed, run.sum.DrainDropped)
		}
		if run.rep.FailoverDropped != 0 {
			t.Fatalf("seed %d: failover_dropped = %d, want 0", seed, run.rep.FailoverDropped)
		}
		if run.sum.Accepted != run.sum.Completed {
			t.Fatalf("seed %d: accepted %d != completed %d", seed, run.sum.Accepted, run.sum.Completed)
		}

		// The kill really happened and really rerouted work.
		if run.rep.Failovers == 0 {
			t.Fatalf("seed %d: no failovers — kill did not land mid-stream", seed)
		}
		if run.rep.ByCause["device-loss"] != run.rep.Failovers {
			t.Fatalf("seed %d: causes %v, want all device-loss", seed, run.rep.ByCause)
		}
		for _, fo := range run.rep.Ledger {
			if fo.From != "s10sx-0" {
				t.Fatalf("seed %d: failover from %s, want s10sx-0", seed, fo.From)
			}
			if fo.To == "" || fo.To == "s10sx-0" {
				t.Fatalf("seed %d: request %d rerouted to %q", seed, fo.ReqID, fo.To)
			}
			if fo.Cause != "device-loss" {
				t.Fatalf("seed %d: ledger cause %q", seed, fo.Cause)
			}
			if fo.AtUS < killAt {
				t.Fatalf("seed %d: failover at %.0fus precedes the kill", seed, fo.AtUS)
			}
		}

		// Every response bit-identical to the reference: request IDs are
		// assigned in arrival order (before sheds), so ID-1 is the arrival
		// index and the expected digit is (ID-1)%10.
		for i, id := range run.ids {
			if want := wantClass[(id-1)%10]; run.argmax[i] != want {
				t.Fatalf("seed %d: response id %d argmax %d, reference %d",
					seed, id, run.argmax[i], want)
			}
		}

		// Work continued after the kill on the survivors only.
		for _, d := range run.rep.Devices {
			if d.Name == "s10sx-0" && d.State != "dead" {
				t.Fatalf("seed %d: victim state %s, want dead", seed, d.State)
			}
		}

		// Byte-determinism: the same seed replays to the identical outcome —
		// summary, ledger, and the full response sequence.
		if testing.Short() {
			continue
		}
		again := runChaos(t, seed, killAt)
		if !reflect.DeepEqual(run.sum, again.sum) {
			t.Fatalf("seed %d: summary not deterministic:\n%+v\n%+v", seed, run.sum, again.sum)
		}
		if !reflect.DeepEqual(run.rep.Ledger, again.rep.Ledger) {
			t.Fatalf("seed %d: ledger not deterministic", seed)
		}
		if !reflect.DeepEqual(run.argmax, again.argmax) || !reflect.DeepEqual(run.ids, again.ids) {
			t.Fatalf("seed %d: response stream not deterministic", seed)
		}
	}
}

// TestChaosHealthyBaselineMatchesReference pins the no-fault path through the
// same stack: two boards, no chaos, zero drops, no failovers, bit-identity.
func TestChaosHealthyBaselineMatchesReference(t *testing.T) {
	run := runChaos(t, 7, 0)
	if run.sum.DrainDropped != 0 || run.rep.FailoverDropped != 0 {
		t.Fatalf("healthy run dropped: drain %d failover %d", run.sum.DrainDropped, run.rep.FailoverDropped)
	}
	if run.rep.Failovers != 0 {
		t.Fatalf("healthy run recorded %d failovers", run.rep.Failovers)
	}
	tcRef := trace.NewCollector()
	ref, err := New(Config{Net: "lenet5", Boards: []BoardSpec{{Board: "S10SX", Count: 1}}}, tcRef)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range run.ids {
		out, err := ref.Reference(nn.Digit(int((id - 1) % 10)))
		if err != nil {
			t.Fatal(err)
		}
		if run.argmax[i] != out.ArgMax() {
			t.Fatalf("response id %d argmax %d, reference %d", id, run.argmax[i], out.ArgMax())
		}
	}
	// Both boards actually shared the load.
	for _, d := range run.rep.Devices {
		if d.Board == "S10SX" && d.Served == 0 {
			t.Fatalf("device %s served nothing — no load balancing", d.Name)
		}
	}
}
