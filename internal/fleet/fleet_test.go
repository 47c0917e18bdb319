package fleet

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

func TestParseBoards(t *testing.T) {
	specs, err := ParseBoards("a10:2,s10sx:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []BoardSpec{{"A10", 2}, {"S10SX", 1}}
	if len(specs) != 2 || specs[0] != want[0] || specs[1] != want[1] {
		t.Fatalf("ParseBoards = %v, want %v", specs, want)
	}
	if specs, err = ParseBoards("S10MX"); err != nil || specs[0] != (BoardSpec{"S10MX", 1}) {
		t.Fatalf("bare name: %v, %v", specs, err)
	}
	for _, bad := range []string{"", "nope:1", "a10:0", "a10:x", ","} {
		if _, err := ParseBoards(bad); err == nil {
			t.Errorf("ParseBoards(%q) should fail", bad)
		}
	}
}

// newTestFleet builds a small lenet5 fleet for state-machine tests.
func newTestFleet(t *testing.T, cfg Config) (*Fleet, *trace.Collector) {
	t.Helper()
	tc := trace.NewCollector()
	if cfg.Net == "" {
		cfg.Net = "lenet5"
	}
	if len(cfg.Boards) == 0 {
		cfg.Boards = []BoardSpec{{Board: "S10SX", Count: 1}}
	}
	fl, err := New(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	return fl, tc
}

func TestHealthStateMachineDeviceLoss(t *testing.T) {
	fl, _ := newTestFleet(t, Config{
		Boards: []BoardSpec{{Board: "S10SX", Count: 1}},
		Faults: []fault.BoardFault{{Device: "s10sx-0", Kind: fault.DeviceLoss, AtUS: 10_000, DurUS: 40_000}},
	})
	d := fl.devs[0]
	steps := []struct {
		at   float64
		want State
	}{
		{5_000, Healthy},
		{10_500, Healthy}, // lost but no heartbeat missed yet
		{14_000, Suspect}, // 2 beats (2 x 2000us) missed
		{20_000, Dead},    // 5 beats missed
		{49_000, Dead},    // still inside the loss window
		{51_000, Recovering},
		{99_000, Recovering}, // reprogramming for recoverUS
		{101_000, Healthy},
	}
	for _, s := range steps {
		fl.advanceAll(s.at)
		if d.state != s.want {
			t.Fatalf("t=%.0f: state %s, want %s", s.at, d.state, s.want)
		}
	}
}

func TestHealthStateMachineBrownout(t *testing.T) {
	fl, _ := newTestFleet(t, Config{
		Faults: []fault.BoardFault{{Device: "s10sx-0", Kind: fault.Brownout, AtUS: 10_000, DurUS: 20_000, Factor: 8}},
	})
	d := fl.devs[0]
	fl.advanceAll(11_000)
	if d.state != Healthy {
		t.Fatalf("before first late beat: %s", d.state)
	}
	fl.advanceAll(13_000)
	if d.state != Suspect {
		t.Fatalf("one late beat in: %s, want suspect", d.state)
	}
	if got := d.brownoutFactorAt(15_000); got != 8 {
		t.Fatalf("brownout factor = %g, want 8", got)
	}
	fl.advanceAll(31_000)
	if d.state != Healthy {
		t.Fatalf("after window: %s, want healthy", d.state)
	}
}

func TestRoutingPrefersFasterAndPenalizesSuspect(t *testing.T) {
	fl, _ := newTestFleet(t, Config{
		Boards: []BoardSpec{{Board: "S10SX", Count: 2}},
	})
	a, b := fl.devs[0], fl.devs[1]
	// Equal estimates: routing order breaks the tie.
	if got := fl.route(0, 8, nil); got != a {
		t.Fatalf("tie: routed to %s, want %s", got.Name, a.Name)
	}
	// A busy device loses to an idle one.
	a.exec.(*simExec).busyUntil = 50_000
	if got := fl.route(0, 8, nil); got != b {
		t.Fatalf("busy: routed to %s, want %s", got.Name, b.Name)
	}
	a.exec.(*simExec).busyUntil = 0
	// Suspect costs one SLA.
	a.state = Suspect
	if got := fl.route(0, 8, nil); got != b {
		t.Fatalf("suspect: routed to %s, want %s", got.Name, b.Name)
	}
	// Dead devices are unroutable; cpuref is the floor.
	a.state, b.state = Dead, Dead
	if got := fl.route(0, 8, nil); got == nil || got.Name != "cpuref" {
		t.Fatalf("blackout: routed to %v, want cpuref", got)
	}
}

// runBatch pushes one batch through the fleet runner directly.
func runBatch(fl *Fleet, formedUS float64, digits ...int) *serve.BatchOutcome {
	reqs := make([]*serve.Request, len(digits))
	for i, d := range digits {
		reqs[i] = &serve.Request{ID: int64(i + 1), Tenant: "t", Input: nn.Digit(d), ArriveUS: formedUS}
	}
	return fl.Run(&serve.Batch{Seq: 1, Reqs: reqs, FormedUS: formedUS})
}

func TestStickyEnqueueFailsOverAndRecovers(t *testing.T) {
	fl, _ := newTestFleet(t, Config{
		Boards: []BoardSpec{{Board: "S10SX", Count: 2}},
		Faults: []fault.BoardFault{{Device: "s10sx-0", Kind: fault.StickyEnqueue, AtUS: 0, DurUS: 30_000}},
	})
	out := runBatch(fl, 1000, 3, 1, 4)
	for i, oc := range out.Outcomes {
		if oc.Err != nil {
			t.Fatalf("outcome %d: %v", i, oc.Err)
		}
		if oc.Rung != "s10sx-1" {
			t.Fatalf("outcome %d served by %s, want s10sx-1 (failover)", i, oc.Rung)
		}
	}
	rep := fl.Report()
	if rep.Failovers != 3 || rep.ByCause["sticky-enqueue"] != 3 {
		t.Fatalf("failovers = %d by cause %v, want 3 sticky-enqueue", rep.Failovers, rep.ByCause)
	}
	if rep.FailoverDropped != 0 {
		t.Fatalf("dropped %d, want 0", rep.FailoverDropped)
	}
	if fl.devs[0].consecFail == 0 {
		t.Fatal("victim should have recorded dispatch failures")
	}
	// After the window the device serves again (health recovered via the
	// dispatch-scheduled path once it had escalated, or stayed healthy).
	fl.advanceAll(90_000)
	if fl.devs[0].state != Healthy {
		t.Fatalf("post-window state %s, want healthy", fl.devs[0].state)
	}
}

func TestBrownoutStretchesService(t *testing.T) {
	fl, _ := newTestFleet(t, Config{
		Boards: []BoardSpec{{Board: "S10SX", Count: 1}},
		Faults: []fault.BoardFault{{Device: "s10sx-0", Kind: fault.Brownout, AtUS: 100_000, DurUS: 100_000, Factor: 8}},
	})
	normal := runBatch(fl, 0, 2, 7).ServiceUS
	slow := runBatch(fl, 120_000, 2, 7).ServiceUS
	// Both windows include one DispatchUS; the device portion stretches 8x.
	wantDevice := (normal - fl.cfg.DispatchUS) * 8
	gotDevice := slow - fl.cfg.DispatchUS
	if diff := gotDevice/wantDevice - 1; diff > 0.01 || diff < -0.01 {
		t.Fatalf("brownout service %gus, want ~%gus (normal %gus)", gotDevice, wantDevice, normal)
	}
}

func TestKillMidServiceRequeuesInFlight(t *testing.T) {
	fl, _ := newTestFleet(t, Config{
		Boards: []BoardSpec{{Board: "S10SX", Count: 2}},
		// Kill lands inside the first batch's service window on s10sx-0
		// (dispatch at 1150us, ~776us modeled service for four images).
		Faults: []fault.BoardFault{{Device: "s10sx-0", Kind: fault.DeviceLoss, AtUS: 1_500}},
	})
	wantRef := make([]int, 10)
	for d := 0; d < 10; d++ {
		ref, err := fl.Reference(nn.Digit(d))
		if err != nil {
			t.Fatal(err)
		}
		wantRef[d] = ref.ArgMax()
	}
	digits := []int{0, 1, 2, 3}
	out := runBatch(fl, 1000, digits...)
	for i, oc := range out.Outcomes {
		if oc.Err != nil {
			t.Fatalf("outcome %d: %v", i, oc.Err)
		}
		if oc.Rung != "s10sx-1" {
			t.Fatalf("outcome %d served by %s, want s10sx-1", i, oc.Rung)
		}
		if oc.ArgMax != wantRef[digits[i]] {
			t.Fatalf("outcome %d argmax %d, reference %d", i, oc.ArgMax, wantRef[digits[i]])
		}
	}
	if fl.devs[0].state != Dead {
		t.Fatalf("victim state %s, want dead", fl.devs[0].state)
	}
	rep := fl.Report()
	if rep.Failovers != 4 || rep.ByCause["device-loss"] != 4 || rep.FailoverDropped != 0 {
		t.Fatalf("report: %+v", rep)
	}
	for _, fo := range rep.Ledger {
		if fo.From != "s10sx-0" || fo.To != "s10sx-1" || fo.Cause != "device-loss" {
			t.Fatalf("ledger entry %+v", fo)
		}
		// Detection is the watchdog deadline, not the kill instant.
		if wantDetect := 1_500 + 5*2_000.0; fo.AtUS != wantDetect {
			t.Fatalf("failover at %.0fus, want %.0f (loss + deadBeats heartbeats)", fo.AtUS, wantDetect)
		}
	}
	// ServiceUS covers detection latency plus the requeue run.
	if out.ServiceUS < 11_000 {
		t.Fatalf("ServiceUS %.0f should include the watchdog detection latency", out.ServiceUS)
	}
}

func TestTotalBlackoutFallsToCPURef(t *testing.T) {
	fl, _ := newTestFleet(t, Config{
		Boards: []BoardSpec{{Board: "S10SX", Count: 1}},
		Faults: []fault.BoardFault{{Device: "s10sx-0", Kind: fault.DeviceLoss, AtUS: 1_000}},
	})
	out := runBatch(fl, 2_000, 5, 6)
	for i, oc := range out.Outcomes {
		if oc.Err != nil || oc.Rung != "cpuref" {
			t.Fatalf("outcome %d: rung %s err %v, want cpuref", i, oc.Rung, oc.Err)
		}
	}
	if rep := fl.Report(); rep.FailoverDropped != 0 {
		t.Fatalf("dropped %d, want 0", rep.FailoverDropped)
	}
}

func TestFaultValidationAtConstruction(t *testing.T) {
	cases := []Config{
		{Faults: []fault.BoardFault{{Device: "nope", Kind: fault.DeviceLoss}}},
		{Faults: []fault.BoardFault{{Device: "cpuref", Kind: fault.DeviceLoss}}},
		{Faults: []fault.BoardFault{{Device: "s10sx-0", Kind: fault.Brownout, DurUS: 10, Factor: 0.5}}},
	}
	for i, cfg := range cases {
		cfg.Net = "lenet5"
		cfg.Boards = []BoardSpec{{Board: "S10SX", Count: 1}}
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("case %d: New should reject %+v", i, cfg)
		}
	}
}

func TestSplitLayersBitIdentical(t *testing.T) {
	g, err := nn.ByName("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	cuts := validCuts(layers)
	if len(cuts) == 0 {
		t.Fatal("resnet18 has no valid pipeline cut")
	}
	cut, err := pickCut(layers)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("resnet18: %d layers, %d valid cuts, balanced cut at %d", len(layers), len(cuts), cut)
	head, tail, err := splitLayers(layers, cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(head)+len(tail) != len(layers) {
		t.Fatalf("split sizes %d+%d != %d", len(head), len(tail), len(layers))
	}
	in := nn.RandomImage(7, layers[0].InShape...)
	want, err := relay.Execute(layers, in)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := relay.Execute(head, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := relay.Execute(tail, mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("output sizes differ: %d vs %d", len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("split output diverges at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
	// Rebasing must not mutate the original chain.
	if layers[cut].In != tail[0].In+cut {
		t.Fatal("splitLayers mutated the source chain")
	}
	// A cut through a residual block must be rejected.
	bad := false
	for c := 1; c < len(layers); c++ {
		if !cutValid(layers, c) {
			bad = true
			if _, _, err := splitLayers(layers, c); err == nil {
				t.Fatalf("splitLayers accepted invalid cut %d", c)
			}
			break
		}
	}
	if !bad {
		t.Log("note: every cut in this chain is valid (no cross-cut skip found)")
	}
}

// stageFake is a shard stage at a fixed modeled time per image that
// absorbs a fixed ledger per run and fails on command.
type stageFake struct {
	perImageUS      float64
	busyUntil       float64
	retries, faults int
	fail            bool
	runs            int
}

func (s *stageFake) availableAt() float64 { return s.busyUntil }
func (s *stageFake) estUS() float64       { return s.perImageUS }

func (s *stageFake) run(inputs []*tensor.Tensor, readyUS float64, _ int64, stretch float64) (*execResult, error) {
	s.runs++
	start := math.Max(readyUS, s.busyUntil)
	s.busyUntil = start + float64(len(inputs))*s.perImageUS*stretch
	r := &execResult{endUS: s.busyUntil, retries: s.retries, faults: s.faults}
	if s.fail {
		return r, errors.New("stage fake: retries exhausted")
	}
	r.outs, r.startUS = inputs, start
	return r, nil
}

func TestShardPipelineOverlap(t *testing.T) {
	a, b := &stageFake{perImageUS: 100}, &stageFake{perImageUS: 80}
	ex := &shardExec{a: a, b: b}
	if got := ex.estUS(); got != 180 {
		t.Fatalf("estUS = %g, want 180 (stage A + stage B)", got)
	}
	in := []*tensor.Tensor{tensor.New(1)}
	// Two 1-image batches back to back: the second enters stage A as soon
	// as the first leaves it, and stage B starts each batch when stage A
	// hands it over (or B frees, whichever is later).
	r1, err := ex.run(in, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ex.run(in, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.startUS != 0 || r1.endUS != 180 {
		t.Fatalf("first batch window [%g, %g], want [0, 180]", r1.startUS, r1.endUS)
	}
	if r2.startUS != 100 {
		t.Fatalf("second batch entered stage A at %g, want 100 (pipeline overlap)", r2.startUS)
	}
	// Stage A frees at 200 and hands over; stage B, free since 180, runs
	// 200..280.
	if r2.endUS != 280 {
		t.Fatalf("second batch end %g, want 280", r2.endUS)
	}
	// availableAt exposes stage A's horizon (admission point), not B's.
	if got := ex.availableAt(); got != 200 {
		t.Fatalf("availableAt = %g, want 200", got)
	}
}

// A failed stage fails the shard run, and the result still carries every
// retry and fault either stage absorbed.
func TestShardStageFailureKeepsLedger(t *testing.T) {
	a := &stageFake{perImageUS: 100, retries: 2, faults: 1}
	b := &stageFake{perImageUS: 80, retries: 3, faults: 2, fail: true}
	ex := &shardExec{a: a, b: b}
	r, err := ex.run([]*tensor.Tensor{tensor.New(1)}, 0, 1, 1)
	if err == nil {
		t.Fatal("stage B failed but the shard run succeeded")
	}
	if r.retries != 5 || r.faults != 3 {
		t.Fatalf("retries %d faults %d, want 5 and 3 (both stages)", r.retries, r.faults)
	}
	if r.endUS != 180 {
		t.Fatalf("failure noticed at %g, want 180 (when stage B gave up)", r.endUS)
	}
	// Stage A failing stops the batch before stage B.
	a.fail, b.fail, b.runs = true, false, 0
	r, err = ex.run([]*tensor.Tensor{tensor.New(1)}, 0, 2, 1)
	if err == nil || r.retries != 2 || r.faults != 1 || b.runs != 0 {
		t.Fatalf("stage A failure: err %v retries %d faults %d, stage B runs %d; want an error, 2, 1, 0",
			err, r.retries, r.faults, b.runs)
	}
}

// A batch that fails on image-level device faults reroutes, and the faults
// its failed attempt absorbed still count in the outcome's ledger.
func TestDeviceFaultFailoverKeepsFaultLedger(t *testing.T) {
	degraded := 0
	for seed := int64(1); seed <= 3; seed++ {
		fl, _ := newTestFleet(t, Config{FaultSeed: seed, FaultRate: 0.5})
		out := runBatch(fl, 1000, 0, 1, 2)
		for i, oc := range out.Outcomes {
			if oc.Err != nil {
				t.Fatalf("seed %d outcome %d: %v", seed, i, oc.Err)
			}
		}
		if out.Degraded > 0 {
			degraded++
			if out.Faults == 0 {
				t.Fatalf("seed %d: %d image(s) failed over on device faults but the outcome records none", seed, out.Degraded)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("rate 0.5 never failed a batch over; test is vacuous")
	}
}
