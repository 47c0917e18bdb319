package host

import (
	"fmt"

	"repro/internal/fpga"
	"repro/internal/topi"
)

// MobileNetConfig returns the folded-kernel tiling of Table 6.7 for a board:
// the 1×1 convolution tiled per platform (7/32/4 on the S10MX, 7/16/4 on the
// S10SX, 7/8/8 on the A10), the input 3×3 convolution unrolled C1×F×F
// (3×3×3), the depthwise kernels unrolled W2×F×F (7×3×3), and the dense
// reduction unrolled by 32.
func MobileNetConfig(board *fpga.Board) FoldedConfig {
	var pw topi.ConvSched
	switch board.Name {
	case "S10MX":
		pw = topi.OptSched(7, 32, 4)
	case "S10SX":
		pw = topi.OptSched(7, 16, 4)
	default: // A10
		pw = topi.OptSched(7, 8, 8)
	}
	return FoldedConfig{
		Conv: map[string]topi.ConvSched{
			"conv1x1s1": pw,
			"conv3x3s2": topi.OptSched(1, 1, 3),
		},
		DWVec:      map[string]int{"dw3x3s1": 7, "dw3x3s2": 7},
		DenseVec:   32,
		Workaround: true,
	}
}

// ResNetConfig returns the folded-kernel tiling of Table 6.13: the 7×7
// convolution unrolled F×F, the 3×3 convolutions tiled W2/C1/F/F = 7/8/3/3,
// the 1×1 projections unrolled C1=8, pooling windows fully unrolled and
// softmax left serial.
func ResNetConfig(board *fpga.Board) FoldedConfig {
	s33 := topi.OptSched(7, 1, 8)
	return FoldedConfig{
		Conv: map[string]topi.ConvSched{
			"conv7x7s2":     topi.OptSched(1, 1, 1),
			"conv3x3s1":     s33,
			"conv3x3s1_res": s33,
			"conv3x3s2":     s33,
			"conv1x1s2_lin": topi.OptSched(1, 1, 8),
		},
		DenseVec:   32,
		Workaround: true,
	}
}

// FoldedConfigFor returns the per-board folded config for a network.
func FoldedConfigFor(net string, board *fpga.Board) (FoldedConfig, error) {
	switch net {
	case "mobilenetv1":
		return MobileNetConfig(board), nil
	case "resnet18", "resnet34":
		return ResNetConfig(board), nil
	}
	return FoldedConfig{}, fmt.Errorf("host: no folded config for %q", net)
}
