package host_test

// The whole-network pin for the pad row lowering: the folded MobileNetV1 and
// ResNet-18 deployments serve.BuildDeployment builds leave no compute loop on
// the closure fallback but their softmax's four (max, exp, sum, divide), and
// every pad binding either plan makes runs on the vector tier
// bit-identically to the interpreter.

import (
	"math"
	"testing"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func TestFoldedNetsPadOnVectorTier(t *testing.T) {
	for _, net := range []string{"mobilenetv1", "resnet18"} {
		g, err := nn.ByName(net)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := relay.Lower(g)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := host.FoldedConfigFor(net, fpga.S10SX)
		if err != nil {
			t.Fatal(err)
		}
		f, err := host.BuildFolded(layers, cfg, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		img := tensor.New(layers[0].InShape...)
		img.FillSeq(3)
		if _, err := f.Infer(img); err != nil {
			t.Fatalf("%s: %v", net, err)
		}
		if s := f.SimStats(); s.FallbackLoops != 4 || s.GuardBailouts != 0 {
			t.Errorf("%s: fallback_loops %d, guard_bailouts %d (want 4, 0)", net, s.FallbackLoops, s.GuardBailouts)
		}
		calls := f.PadCalls()
		if len(calls) == 0 {
			t.Fatalf("%s: plan has no pad invocation", net)
		}
		for _, c := range calls {
			in := tensor.New(c.InLen)
			in.FillSeq(uint64(c.InLen))
			in.Data[0] = math.Float32frombits(0x7fc00001)
			in.Data[c.InLen-1] = float32(math.Copysign(0, -1))
			want := runPad(t, c, sim.TierInterp, in.Data)
			got := runPad(t, c, sim.TierVector, in.Data)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%s: pad %v elem %d: vector %#08x, interp %#08x",
						net, c.Scalars, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
				}
			}
		}
	}
}

func runPad(t *testing.T, c host.PadCall, tier sim.Tier, in []float32) []float32 {
	t.Helper()
	m := sim.NewMachine()
	m.SetTier(tier)
	out := make([]float32, c.OutLen)
	m.Bind(c.In, in)
	m.Bind(c.Out, out)
	if err := m.Run(c.Kernel, c.Scalars); err != nil {
		t.Fatalf("%s tier: %v", tier, err)
	}
	return out
}
