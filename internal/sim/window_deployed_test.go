package sim_test

// The deployed window nests stay on the lane path: one image through each
// deployed network must fold every window run — MobileNetV1's 13 depthwise
// layers, ResNet-18's 3×3/2 max pool and LeNet-5's two 2×2/2 max pools — as
// merged lane runs, none on the scalar fold. A refactor that makes the lane
// plan decline them would otherwise only show as lost speed.

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
		t.Skip("CPU has no AVX2: every window run folds on the scalar twin")
	}
	cases := []struct {
		net        string
		windowRuns int64
	}{{"lenet5", 2}, {"mobilenetv1", 13}, {"resnet18", 1}}
	for _, c := range cases {
		dep, layers, err := serve.BuildDeployment(c.net, fpga.S10SX)
		if err != nil {
			t.Fatal(err)
		}
		in := []*tensor.Tensor{nn.RandomImage(1, layers[0].InShape...)}
		runs, stop := sim.CountLaneRuns()
		_, err = dep.RunBatch(in, host.BatchOptions{Workers: 1})
		stop()
		if err != nil {
			t.Fatalf("%s: %v", c.net, err)
		}
		if m, sc := runs.Merged.Load(), runs.Scalar.Load(); m != c.windowRuns || sc != 0 {
			t.Errorf("%s: merged lane runs %d, scalar folds %d, want %d, 0", c.net, m, sc, c.windowRuns)
		}
	}
}
