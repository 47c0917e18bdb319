package serve

// The per-request degradation ladder: batch → solo → cpuref. A fake
// deployment fails on command, so every rung and the service-time ledger
// are checked exactly; the real LeNet-5 deployment under injected faults
// checks that failed attempts still count in the fault ledger.

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/ir"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// fakeDeployment answers with the reference output at a fixed modeled cost
// per image. Its RunBatch fails on any batch of more than one image and on
// the riders listed in poisoned; a failed attempt returns the partial result
// RunBatch documents: one fault and fakeRetries retries, no outputs.
type fakeDeployment struct {
	layers     []*relay.Layer
	poisoned   map[*tensor.Tensor]bool
	perImageUS float64
	failBatch  bool
}

const fakeRetries = 3

func (d *fakeDeployment) Infer(in *tensor.Tensor) (*tensor.Tensor, error) {
	return relay.Execute(d.layers, in)
}

func (d *fakeDeployment) RunBatch(inputs []*tensor.Tensor, _ host.BatchOptions) (*host.BatchResult, error) {
	if (d.failBatch && len(inputs) > 1) || (len(inputs) == 1 && d.poisoned[inputs[0]]) {
		return &host.BatchResult{
			Images:  len(inputs),
			Faults:  []host.BatchFault{{Record: fault.Record{Kind: fault.EnqueueFail}}},
			Retries: fakeRetries,
		}, errors.New("fake: retries exhausted")
	}
	res := &host.BatchResult{Images: len(inputs), ModeledUS: d.perImageUS * float64(len(inputs))}
	for _, in := range inputs {
		out, err := d.Infer(in)
		if err != nil {
			return nil, err
		}
		res.Outputs = append(res.Outputs, out)
	}
	return res, nil
}

func (d *fakeDeployment) KernelSet() []*ir.Kernel { return nil }

func fakeLadder(t *testing.T, dep *fakeDeployment) *LadderRunner {
	t.Helper()
	layers, err := relay.Lower(nn.LeNet5())
	if err != nil {
		t.Fatal(err)
	}
	dep.layers = layers
	return &LadderRunner{cfg: Config{Net: "lenet5"}.withDefaults(), dep: dep, layers: layers}
}

func TestLadderRungsUnderInjectedFailures(t *testing.T) {
	const perImageUS = 700
	dep := &fakeDeployment{perImageUS: perImageUS, failBatch: true, poisoned: map[*tensor.Tensor]bool{}}
	r := fakeLadder(t, dep)
	cfg := r.Config()

	b := &Batch{Seq: 1}
	for i := 0; i < 5; i++ {
		b.Reqs = append(b.Reqs, &Request{ID: int64(i + 1), Input: nn.Digit(i)})
	}
	wantRung := []string{RungSolo, RungCPURef, RungSolo, RungCPURef, RungSolo}
	cpuref := 0
	for i, rung := range wantRung {
		if rung == RungCPURef {
			dep.poisoned[b.Reqs[i].Input] = true
			cpuref++
		}
	}
	solo := len(wantRung) - cpuref

	out := r.Run(b)
	for i, oc := range out.Outcomes {
		want, err := r.Reference(b.Reqs[i].Input)
		if err != nil {
			t.Fatal(err)
		}
		if oc.Rung != wantRung[i] || oc.Err != nil || oc.ArgMax != want.ArgMax() {
			t.Errorf("rider %d: rung %s argmax %d err %v, want rung %s argmax %d",
				i, oc.Rung, oc.ArgMax, oc.Err, wantRung[i], want.ArgMax())
		}
	}
	if out.Degraded != len(b.Reqs) {
		t.Errorf("Degraded = %d, want %d (every rider left the batch rung)", out.Degraded, len(b.Reqs))
	}
	wantService := cfg.DispatchUS*float64(1+len(b.Reqs)) + perImageUS*float64(solo) + CPURefUS(r.layers)*float64(cpuref)
	if out.ServiceUS != wantService {
		t.Errorf("ServiceUS = %v, want %v", out.ServiceUS, wantService)
	}
	if out.DeviceUS != perImageUS*float64(solo) {
		t.Errorf("DeviceUS = %v, want the %d solo runs' %v", out.DeviceUS, solo, perImageUS*float64(solo))
	}
	// The failed batch attempt and each failed solo attempt keep their ledger.
	if out.Faults != 1+cpuref || out.Retries != fakeRetries*(1+cpuref) {
		t.Errorf("faults %d retries %d, want %d and %d", out.Faults, out.Retries, 1+cpuref, fakeRetries*(1+cpuref))
	}

	// A healthy batch stays on the batch rung and costs one dispatch.
	dep.failBatch = false
	out = r.Run(&Batch{Seq: 2, Reqs: b.Reqs[:2]})
	for i, oc := range out.Outcomes {
		if oc.Rung != RungBatch {
			t.Errorf("healthy batch rider %d served by %s", i, oc.Rung)
		}
	}
	if out.Degraded != 0 || out.ServiceUS != cfg.DispatchUS+2*perImageUS {
		t.Errorf("healthy batch: Degraded %d ServiceUS %v, want 0 and %v", out.Degraded, out.ServiceUS, cfg.DispatchUS+2*perImageUS)
	}
}

// TestLadderFaultLedgerUnderInjection runs three requests at t = 0 through
// the real LeNet-5 ladder at fault rate 0.5: every answer must still equal
// the reference, and a request leaves the batch rung only on a failed
// attempt whose faults count — one for the batch, one per cpuref rider.
func TestLadderFaultLedgerUnderInjection(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{Net: "lenet5", FaultSeed: seed, FaultRate: 0.5}
		tc := trace.NewCollector()
		r, err := NewLadderRunner(cfg, tc)
		if err != nil {
			t.Fatal(err)
		}
		var arrivals []Arrival
		for i := 0; i < 3; i++ {
			arrivals = append(arrivals, Arrival{Tenant: "chaos", Input: nn.Digit(i)})
		}
		res := RunSim(cfg, r, arrivals, tc)
		if res.Completed != len(arrivals) || res.DrainDropped != 0 {
			t.Fatalf("seed %d: completed %d of %d, dropped %d", seed, res.Completed, len(arrivals), res.DrainDropped)
		}
		for _, resp := range res.Responses {
			want, err := r.Reference(arrivals[resp.ID-1].Input)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Err != nil || resp.ArgMax != want.ArgMax() {
				t.Fatalf("seed %d: request %d (rung %s): argmax %d err %v, reference says %d",
					seed, resp.ID, resp.Rung, resp.ArgMax, resp.Err, want.ArgMax())
			}
		}
		m := tc.Metrics()
		left := m.Counter("serve.rung."+RungSolo).Value() + m.Counter("serve.rung."+RungCPURef).Value()
		cpuref := m.Counter("serve.rung." + RungCPURef).Value()
		faults := m.Counter("serve.faults").Value()
		if left > 0 && faults < 1+cpuref {
			t.Fatalf("seed %d: %d request(s) left the batch rung (%d to cpuref) but serve.faults = %d",
				seed, left, cpuref, faults)
		}
		t.Logf("seed %d: batch %d solo %d cpuref %d, faults %d retries %d", seed,
			m.Counter("serve.rung."+RungBatch).Value(), m.Counter("serve.rung."+RungSolo).Value(),
			cpuref, faults, m.Counter("serve.retries").Value())
	}
}
