package bench

import (
	"repro/internal/fpga"
	"repro/internal/host"
)

// FoldedConfigFor forwards to host.FoldedConfigFor, which holds the
// deployed Table 6.7 / 6.13 tilings. It stays because the benchmark module
// (benchmark/compile.go) calls it by this name.
func FoldedConfigFor(net string, board *fpga.Board) (host.FoldedConfig, error) {
	return host.FoldedConfigFor(net, board)
}

// NaiveFolded is the base folded bitstream: one naive kernel per layer.
var NaiveFolded = host.FoldedConfig{Naive: true, Workaround: true}
