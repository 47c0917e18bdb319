package serve

// The whole-network count gate: one image through each deployed network's
// RunBatch must run every recognized nest on its whole-nest executor, with
// no GEMM or window bailout and no guard failure, at exactly the per-image
// counts below. The counts are the work clock of the sim's vector tier: a
// change that moves a nest between executors moves them, and must say why
// here.
//
// Each net leaves exactly four innermost compute loops on the closures, all
// in its softmax: the running max into maxelem, the exp into the exp
// buffer, the running sum into expsum, and the divide into out. They match
// no whole nest and are no plain copy.

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
		// gemmMinCols. The 8 vector runs are plain copies (copyLoop): the
		// channel staging copies and the flatten.
		{"lenet5", 8, 5, 2},
		// The first conv and the 13 pointwise convs on cpuref.Gemm; the 13
		// depthwise layers, the 7×7 average pool and the dense GEMV on the
		// window path. The 14 vector runs are the pad kernels' row fills
		// and copies (padLoop).
		{"mobilenetv1", 14, 15, 14},
		// 20 conv GEMMs; the 3×3/2 max pool, the 7×7 average pool and the
		// dense GEMV on the window path. The 18 vector runs are pad kernels.
		{"resnet18", 18, 3, 20},
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
		if st.GemmBailouts != 0 || st.GuardBailouts != 0 || st.FallbackLoops != 4 {
			t.Errorf("%s: gemm_bailouts %d, guard_bailouts %d, fallback_loops %d (want 0, 0, 4)",
				c.net, st.GemmBailouts, st.GuardBailouts, st.FallbackLoops)
		}
		if st.VectorRuns != c.vectorRuns || st.WindowRuns != c.windowRuns || st.GemmRuns != c.gemmRuns {
			t.Errorf("%s: vector/window/gemm runs per image %d/%d/%d, want %d/%d/%d",
				c.net, st.VectorRuns, st.WindowRuns, st.GemmRuns, c.vectorRuns, c.windowRuns, c.gemmRuns)
		}
	}
}
