package aoc_test

import (
	"testing"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
)

// namedDesign is one compiled design the repo builds, named
// "<kind>/<net>/<board>".
type namedDesign struct {
	name   string
	design *aoc.Design
}

// foldedNets are the networks the repo deploys as folded kernels.
var foldedNets = []string{"mobilenetv1", "resnet18", "resnet34"}

func lowerNet(t *testing.T, net string) []*relay.Layer {
	t.Helper()
	g, err := nn.ByName(net)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	return layers
}

// repoDesigns builds every fixed design the repo compiles, on every board:
// the five LeNet-5 bitstreams of Table 6.4 (the last one is the deployed
// LeNet), and for each folded network its deployed tiling and its naive
// one-kernel-per-layer base.
func repoDesigns(t *testing.T) []namedDesign {
	t.Helper()
	lenet := lowerNet(t, "lenet5")
	folded := map[string][]*relay.Layer{}
	for _, net := range foldedNets {
		folded[net] = lowerNet(t, net)
	}
	var out []namedDesign
	for _, board := range fpga.Boards {
		for _, v := range host.PipeVariants {
			p, err := host.BuildPipelined(lenet, v, board, aoc.DefaultOptions)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedDesign{"ladder/" + v.String() + "/" + board.Name, p.Design})
		}
		for _, net := range foldedNets {
			cfg, err := host.FoldedConfigFor(net, board)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				kind string
				cfg  host.FoldedConfig
			}{{"deployed", cfg}, {"naive", host.FoldedConfig{Naive: true, Workaround: true}}} {
				f, err := host.BuildFolded(folded[net], c.cfg, board, aoc.DefaultOptions)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, namedDesign{c.kind + "/" + net + "/" + board.Name, f.Design})
			}
		}
	}
	return out
}
