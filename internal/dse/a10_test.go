package dse

import (
	"math"
	"testing"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// a10ResNet18Winner is the Space key of the exhaustive joint sweep's best
// ResNet-18 point on the Arria 10: c33.w2 7, c33.c2 4, c33.c1 1,
// c33.unroll_ff off, proj.c1 8, dense kvec 16, workaround on.
const a10ResNet18Winner = "1.2.0.0.3.4.1"

// TestA10ResNet18FitFacts pins why the thesis's ResNet-18 does not fit the
// Arria 10: its hand tiling, not the board. Under one compile cache, the
// hand config (host.ResNetConfig, the same 3×3 tiling on every board) fails
// on BRAM, and the joint sweep's A10 winner fits, at the modeled time the
// sweep reported, and one image of it through Folded.RunBatch is
// bit-identical to the deployed S10SX config's.
func TestA10ResNet18FitFacts(t *testing.T) {
	g, err := nn.ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	cache := aoc.NewCompileCache()

	hand, err := evaluate(layers, host.ResNetConfig(fpga.A10), fpga.A10, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hand.Synthesizable || hand.FailReason != "BRAM" {
		t.Fatalf("hand ResNet-18 config on A10: synthesizable %v, fail reason %q; want a BRAM failure", hand.Synthesizable, hand.FailReason)
	}

	space := BuildSpace(layers, "resnet18")
	p, err := space.pointFromKey(a10ResNet18Winner)
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Config(p)
	s33 := topi.ConvSched{W2vec: 7, C2vec: 4, C1vec: 1}
	for key, want := range map[string]topi.ConvSched{
		"conv3x3s1": s33, "conv3x3s1_res": s33, "conv3x3s2": s33,
		"conv1x1s2_lin": topi.OptSched(1, 1, 8),
	} {
		if got := cfg.Conv[key]; got != want {
			t.Errorf("winner %s tiling = %+v, want %+v", key, got, want)
		}
	}
	if got := cfg.Dense["dense"]; got != 16 {
		t.Errorf("winner dense kvec = %d, want 16", got)
	}
	win, err := evaluate(layers, cfg, fpga.A10, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !win.Synthesizable {
		t.Fatalf("A10 joint-sweep winner does not fit: %s", win.FailReason)
	}
	if got := math.Round(win.TimeUS*10) / 10; got != 130040.5 {
		t.Fatalf("A10 winner modeled time = %.4f us, want 130040.5", win.TimeUS)
	}

	// One image of the winner through RunBatch computes exactly what the
	// deployed S10SX config computes. It is not compared with relay.Execute
	// bit for bit: no folded ResNet-18 config is bit-identical to it (conv1
	// already differs in the last place, on the hand config too), because
	// the kernels and cpuref reduce in different orders.
	input := nn.RandomImage(1, layers[0].InShape...)
	var outs [2]*tensor.Tensor
	for i, d := range []struct {
		cfg   host.FoldedConfig
		board *fpga.Board
	}{{cfg, fpga.A10}, {host.ResNetConfig(fpga.S10SX), fpga.S10SX}} {
		dep, err := host.BuildFoldedCached(layers, d.cfg, d.board, aoc.DefaultOptions, cache)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dep.RunBatch([]*tensor.Tensor{input}, host.BatchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = res.Outputs[0]
	}
	for i := range outs[1].Data {
		if math.Float32bits(outs[0].Data[i]) != math.Float32bits(outs[1].Data[i]) {
			t.Fatalf("A10 winner output[%d] = %v, deployed S10SX config %v: not bit-identical", i, outs[0].Data[i], outs[1].Data[i])
		}
	}
}
