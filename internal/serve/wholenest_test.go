package serve

// The whole-network count gate: one image through each deployed network's
// RunBatch must run every recognized nest on its whole-nest executor, with
// no GEMM or window bailout, no guard failure and no scalar fallback loop,
// at exactly the per-image counts below. The counts are the work clock of
// the sim's vector tier: a change that moves a nest between executors moves
// them, and must say why here.

import (
	"testing"

	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func TestDeployedNetworksRunWholeNests(t *testing.T) {
	cases := []struct {
		net                              string
		vectorRuns, windowRuns, gemmRuns int64
	}{
		// Both convs on cpuref.Gemm. On the window path: both max pools and
		// the three one-column dense GEMVs, which the GEMM declines below
		// gemmMinCols. The 12 vector runs are single-entry nests: channel
		// staging copies, flatten and softmax.
		{"lenet5", 12, 5, 2},
		// The first conv and the 13 pointwise convs on cpuref.Gemm; the 13
		// depthwise layers, the 7×7 average pool and the dense GEMV on the
		// window path. Of the 18 vector runs, 14 are pad kernels' row
		// fills and copies (padLoop), 4 single-entry nests.
		{"mobilenetv1", 18, 15, 14},
		// 20 conv GEMMs; the 3×3/2 max pool, the 7×7 average pool and the
		// dense GEMV on the window path. Of the 22 vector runs, 18 are pad
		// kernels, 4 single-entry nests.
		{"resnet18", 22, 3, 20},
	}
	for _, c := range cases {
		dep, layers, err := BuildDeployment(c.net, fpga.S10SX)
		if err != nil {
			t.Fatal(err)
		}
		in := []*tensor.Tensor{nn.RandomImage(1, layers[0].InShape...)}
		if _, err := dep.RunBatch(in, host.BatchOptions{Workers: 1}); err != nil {
			t.Fatalf("%s: %v", c.net, err)
		}
		st := dep.(interface{ SimStats() sim.StatsSnapshot }).SimStats()
		if st.GemmBailouts != 0 || st.GuardBailouts != 0 || st.FallbackLoops != 0 {
			t.Errorf("%s: gemm_bailouts %d, guard_bailouts %d, fallback_loops %d (want 0, 0, 0)",
				c.net, st.GemmBailouts, st.GuardBailouts, st.FallbackLoops)
		}
		if st.VectorRuns != c.vectorRuns || st.WindowRuns != c.windowRuns || st.GemmRuns != c.gemmRuns {
			t.Errorf("%s: vector/window/gemm runs per image %d/%d/%d, want %d/%d/%d",
				c.net, st.VectorRuns, st.WindowRuns, st.GemmRuns, c.vectorRuns, c.windowRuns, c.gemmRuns)
		}
	}
}
