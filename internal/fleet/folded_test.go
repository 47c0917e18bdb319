package fleet

import (
	"testing"

	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The fault plan of TestFoldedNetsServeOnTheirKernels: at seed 2 and rate
// 0.3, one of each fleet's two dispatches exhausts the batch engine's
// retries and fails over to cpuref, and the other is served on the FPGA
// device.
const (
	foldedFaultSeed = 2
	foldedFaultRate = 0.3
)

// Folded nets serve on their own deployed kernels, image-level faults
// included: a MobileNetV1 board and the ResNet-18 S10SX+S10MX shard each
// answer the same image in two single-image batches. Every answer matches relay.Execute in
// argmax, a dispatch fails over, the faults count in the outcomes, and the
// shard's output is bit-identical to the whole S10SX deployment's.
func TestFoldedNetsServeOnTheirKernels(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"mobilenetv1-1xS10SX", Config{Net: "mobilenetv1", Boards: []BoardSpec{{"S10SX", 1}}}},
		{"resnet18-S10SX+S10MX-shard", Config{Net: "resnet18",
			Boards: []BoardSpec{{"S10SX", 1}, {"S10MX", 1}}, Shard: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.FaultSeed, c.cfg.FaultRate = foldedFaultSeed, foldedFaultRate
			fl, err := New(c.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			// One input for both dispatches: the reference, a CPU forward
			// pass, runs once.
			in := nn.RandomImage(1, fl.InShape()...)
			ref, err := fl.Reference(in)
			if err != nil {
				t.Fatal(err)
			}
			dev := fl.devs[0].Name
			rungs := map[string]int{}
			faults := 0
			for i := 1; i <= 2; i++ {
				at := float64(i) * 1e6
				out := fl.Run(&serve.Batch{Seq: i, FormedUS: at,
					Reqs: []*serve.Request{{ID: int64(i), Input: in, ArriveUS: at}}})
				oc := out.Outcomes[0]
				if oc.Err != nil || oc.ArgMax != ref.ArgMax() {
					t.Fatalf("image %d (rung %s): argmax %d err %v, relay.Execute says %d",
						i, oc.Rung, oc.ArgMax, oc.Err, ref.ArgMax())
				}
				rungs[oc.Rung]++
				faults += out.Faults
			}
			rep := fl.Report()
			if rungs[dev] == 0 || rep.ByCause["device-fault"] == 0 {
				t.Fatalf("rungs %v, failovers by cause %v: want an answer from %s and a device-fault failover",
					rungs, rep.ByCause, dev)
			}
			if faults == 0 {
				t.Fatal("dispatches failed over on device faults but the outcomes record none")
			}
		})
	}

	// The shard's two half deployments compose to the whole S10SX
	// deployment, bit for bit.
	fl, err := New(Config{Net: "resnet18", Boards: []BoardSpec{{"S10SX", 1}, {"S10MX", 1}}, Shard: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole, _, err := serve.BuildDeployment("resnet18", fpga.S10SX)
	if err != nil {
		t.Fatal(err)
	}
	in := []*tensor.Tensor{nn.RandomImage(1, fl.InShape()...)}
	got, err := fl.devs[0].exec.run(in, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.RunBatch(in, host.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.outs[0].Data, want.Outputs[0].Data
	if len(g) != len(w) {
		t.Fatalf("shard output has %d values, whole deployment %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("shard output diverges at %d: %g vs %g", i, g[i], w[i])
		}
	}
}
