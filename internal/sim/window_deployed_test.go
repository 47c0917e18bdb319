package sim_test

// The deployed window nests stay on their fast folds: one image through
// each deployed network must fold every depthwise layer and max pool —
// MobileNetV1's 13 depthwise layers, ResNet-18's 3×3/2 max pool, LeNet-5's
// two 2×2/2 max pools — as merged lane runs, every dense layer's GEMV
// (LeNet-5's three, one in each of the others) on the four-point fold, and
// only the global 7×7 average pools (MobileNetV1's and ResNet-18's) on the
// per-point scalar fold: their output is one point per channel, so a lane
// run would hold one lane. A refactor that makes a plan decline the others
// would otherwise only show as lost speed.
//
// The same image pins the write-back rows' paths. Every GEMM row (a conv
// output channel's plane, bias and residual adds and activation fused) and
// every merged run takes the lane kernel, except the one-point rows, which
// stay on the scalar twin: the GEMVs' outputs (LeNet-5's 120 + 84 + 10, the
// others' 1000) and the average pools' outputs (MobileNetV1's 1024
// channels, ResNet-18's 512). With the lanes off no row takes the lane
// kernel.

import (
	"testing"

	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func TestDeployedWindowRunsTakeLanes(t *testing.T) {
	if !sim.CPUHasLanes {
		t.Skip("CPU has no AVX2: no window run takes the lane path")
	}
	cases := []struct {
		net                   string
		merged, multi, scalar int64
		laneRows, twinRows    int64
	}{
		{"lenet5", 2, 3, 0, 180, 120 + 84 + 10},
		{"mobilenetv1", 13, 1, 1, 81248, 1024 + 1000},
		{"resnet18", 1, 1, 1, 8384, 512 + 1000},
	}
	for _, c := range cases {
		dep, layers, err := serve.BuildDeployment(c.net, fpga.S10SX)
		if err != nil {
			t.Fatal(err)
		}
		in := []*tensor.Tensor{nn.RandomImage(1, layers[0].InShape...)}
		run := func() (lanes, twin int64) {
			t.Helper()
			rows, stop := sim.CountEmitRows()
			defer stop()
			if _, err := dep.RunBatch(in, host.BatchOptions{Workers: 1}); err != nil {
				t.Fatalf("%s: %v", c.net, err)
			}
			return rows.Lanes.Load(), rows.Scalar.Load()
		}
		runs, stop := sim.CountLaneRuns()
		lanes, twin := run()
		stop()
		if m, mu, sc := runs.Merged.Load(), runs.Multi.Load(), runs.Scalar.Load(); m != c.merged || mu != c.multi || sc != c.scalar {
			t.Errorf("%s: merged lane runs %d, four-point folds %d, scalar folds %d, want %d, %d, %d",
				c.net, m, mu, sc, c.merged, c.multi, c.scalar)
		}
		if lanes != c.laneRows || twin != c.twinRows {
			t.Errorf("%s: write-back rows on lanes %d, on the twin %d, want %d, %d", c.net, lanes, twin, c.laneRows, c.twinRows)
		}
		restore := sim.SetLanes(false)
		lanes, _ = run()
		restore()
		if lanes != 0 {
			t.Errorf("%s, lanes off: %d write-back rows on lanes, want 0", c.net, lanes)
		}
	}
}
