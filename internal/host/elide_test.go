package host

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// sessionOn builds a cold session whose machine runs on tier. The
// tier is fixed when the session is built, so the deployment's own tier is
// restored before returning.
func sessionOn(t *testing.T, sh shape, tier sim.Tier) *session {
	t.Helper()
	e := sh.state()
	prev := e.tier
	e.tier = tier
	defer func() { e.tier = prev }()
	s, err := sh.newSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// elideInputs is the ten digits plus ten seeded N(0,3) images, each carrying
// a −0, a NaN, +Inf and −Inf at seeded pixels.
func elideInputs() []*tensor.Tensor {
	ins := batchInputs(10)
	rng := rand.New(rand.NewSource(26))
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := 0; i < 10; i++ {
		img := tensor.New(1, 28, 28)
		for j := range img.Data {
			img.Data[j] = float32(rng.NormFloat64() * 3)
		}
		for _, v := range specials {
			img.Data[rng.Intn(len(img.Data))] = v
		}
		ins = append(ins, img)
	}
	return ins
}

// TestElidedSessionMatchesInterpOracle: on every Table 6.4 variant, a session
// with its channels elided must equal, to the bit, RunGraph over the original
// channel kernels on the interpreter tier, on the vector tier (whole-nest
// executors, copies and closures).
func TestElidedSessionMatchesInterpOracle(t *testing.T) {
	layers := lenetLayers(t)
	inputs := elideInputs()
	for _, v := range PipeVariants {
		p, err := BuildPipelined(layers, v, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		oracle := sessionOn(t, p, sim.TierInterp)
		want := make([]*tensor.Tensor, len(inputs))
		for i, in := range inputs {
			if want[i], err = oracle.run(in, nil); err != nil {
				t.Fatalf("%s: interp oracle image %d: %v", v, i, err)
			}
		}
		s := sessionOn(t, p, sim.TierVector)
		for i, in := range inputs {
			got, err := s.run(in, nil)
			if err != nil {
				t.Fatalf("%s: image %d: %v", v, i, err)
			}
			bitEqual(t, v.String()+" vs interp oracle", got, want[i])
		}
	}
}

// TestElidedLeNetCounters pins what elision buys on the deployed LeNet: every
// conv and dense nest reaches the GEMM matcher, and what is left runs as
// exactly 8 plain copies (the staging copies and the flatten) plus the
// softmax's 4 innermost loops on the closures.
func TestElidedLeNetCounters(t *testing.T) {
	p, err := BuildPipelined(lenetLayers(t), PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Infer(nn.Digit(3)); err != nil {
		t.Fatal(err)
	}
	s := p.SimStats()
	if s.GemmLoops != 5 || s.FallbackLoops != 4 || s.GemmBailouts != 0 || s.VectorRuns != 8 {
		t.Fatalf("one elided LeNet image: gemm_loops %d (want 5), fallback_loops %d (want 4), "+
			"gemm_bailouts %d (want 0), vector_runs %d (want 8)",
			s.GemmLoops, s.FallbackLoops, s.GemmBailouts, s.VectorRuns)
	}
}
