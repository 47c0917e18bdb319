package host_test

// A folded session reuses its activation buffers across images without
// clearing them, on the contract that every deployed kernel writes its whole
// output before any kernel reads it. An image that leaves NaN in every
// buffer it writes must therefore not change the next image's output by a
// single bit.

import (
	"math"
	"testing"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/tensor"
)

func TestFoldedIgnoresStaleActivations(t *testing.T) {
	for _, net := range []string{"mobilenetv1", "resnet18", "resnet34"} {
		g, err := nn.ByName(net)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := relay.Lower(g)
		if err != nil {
			t.Fatal(err)
		}
		nan := tensor.New(layers[0].InShape...)
		for i := range nan.Data {
			nan.Data[i] = float32(math.NaN())
		}
		img := tensor.New(layers[0].InShape...)
		img.FillSeq(5)
		for _, board := range []*fpga.Board{fpga.A10, fpga.S10SX, fpga.S10MX} {
			cfg, err := host.FoldedConfigFor(net, board)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *host.Folded {
				f, err := host.BuildFolded(layers, cfg, board, aoc.DefaultOptions)
				if err != nil {
					t.Fatalf("%s on %s: %v", net, board.Name, err)
				}
				return f
			}
			want, err := build().Infer(img)
			if err != nil {
				t.Fatal(err)
			}
			warm := build()
			stale, err := warm.Infer(nan)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range stale.Data {
				if v == v {
					t.Fatalf("%s on %s: output %d of the NaN image = %v: NaN did not reach the last layer", net, board.Name, i, v)
				}
			}
			got, err := warm.Infer(img)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s on %s: output %d after a NaN image = %#08x, fresh %#08x",
						net, board.Name, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	}
}
