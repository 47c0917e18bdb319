package sim_test

// GEMM-lowering guard tests: when the run-time stride verification rejects a
// nest (here: output aliasing the input), the machine must replay the nest on
// its scalar twin, count the bailout, and still produce output bit-identical
// to the interpreter under the same (aliased) bindings.

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topi"
)

func TestGemmBailoutReplaysOnTwin(t *testing.T) {
	op, err := topi.Conv2D(topi.ConvSpec{Name: "alias", C1: 3, H: 10, W: 10, C2: 4, F: 3, S: 1, Relu: true, Bias: true},
		topi.OptSched(4, 2, 1), topi.ConvIO{})
	if err != nil {
		t.Fatal(err)
	}
	// One backing slice: the output region is a prefix of the input region,
	// so D overlaps A and the GEMM guard must refuse to lower at run time.
	// The aliased semantics are still well-defined (the interpreter's
	// statement order), and the twin must reproduce them exactly.
	mk := func() (in, wt, b, out []float32) {
		backing := seeded(1, 3, 10, 10).Data // 300 floats
		return backing, seeded(2, 4, 3, 3, 3).Data, seeded(3, 4).Data, backing[:4*8*8]
	}
	run := func(tier sim.Tier, st *sim.ExecStats) []float32 {
		in, wt, b, out := mk()
		m := sim.NewMachine()
		m.SetTier(tier)
		m.SetStats(st)
		m.Bind(op.In, in)
		m.Bind(op.Weights, wt)
		m.Bind(op.Bias, b)
		m.Bind(op.Out, out)
		if err := m.Run(op.Kernel, nil); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(sim.TierInterp, nil)
	st := &sim.ExecStats{}
	got := run(sim.TierVector, st)
	s := st.Snapshot()
	if s.GemmLoops == 0 {
		t.Fatalf("conv nest was not GEMM-lowered at compile time: %+v", s)
	}
	if s.GemmBailouts == 0 {
		t.Fatalf("aliased bindings must fail the GEMM guard, got %+v", s)
	}
	if s.GemmRuns != 0 {
		t.Fatalf("aliased nest must not run on the GEMM path, got %+v", s)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("twin replay diverged from interpreter at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestGemmCleanBindingsDoNotBail is the control: the same kernel with
// disjoint buffers takes the GEMM path with zero bailouts and stays
// bit-identical to the interpreter.
func TestGemmCleanBindingsDoNotBail(t *testing.T) {
	op, err := topi.Conv2D(topi.ConvSpec{Name: "clean", C1: 3, H: 10, W: 10, C2: 4, F: 3, S: 1, Relu: true, Bias: true},
		topi.OptSched(4, 2, 1), topi.ConvIO{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(tier sim.Tier, st *sim.ExecStats) []float32 {
		out := make([]float32, 4*8*8)
		m := sim.NewMachine()
		m.SetTier(tier)
		m.SetStats(st)
		m.Bind(op.In, seeded(1, 3, 10, 10).Data)
		m.Bind(op.Weights, seeded(2, 4, 3, 3, 3).Data)
		m.Bind(op.Bias, seeded(3, 4).Data)
		m.Bind(op.Out, out)
		if err := m.Run(op.Kernel, nil); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(sim.TierInterp, nil)
	st := &sim.ExecStats{}
	got := run(sim.TierVector, st)
	s := st.Snapshot()
	if s.GemmRuns == 0 || s.GemmBailouts != 0 {
		t.Fatalf("clean bindings must take the GEMM path without bailing: %+v", s)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GEMM path diverged from interpreter at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestGemmReluEpilogueNaNBits: a window summing +Inf and −Inf yields the
// hardware's default NaN, which is negative on amd64; the scalar tiers' ReLU
// (math.Max) returns the canonical positive NaN, so the fused epilogue must
// too. −0 inputs ride along.
func TestGemmReluEpilogueNaNBits(t *testing.T) {
	for _, relu6 := range []bool{false, true} {
		op, err := topi.Conv2D(topi.ConvSpec{Name: "nan", C1: 3, H: 10, W: 10, C2: 4, F: 3, S: 1,
			Relu: !relu6, Relu6: relu6, Bias: true}, topi.OptSched(4, 2, 1), topi.ConvIO{})
		if err != nil {
			t.Fatal(err)
		}
		in := seeded(1, 3, 10, 10)
		in.Data[0], in.Data[1] = float32(math.Inf(1)), float32(math.Inf(-1))
		in.Data[50] = float32(math.Copysign(0, -1))
		w := seeded(2, 4, 3, 3, 3)
		for i, v := range w.Data {
			w.Data[i] = float32(math.Abs(float64(v)))
		}
		b := seeded(3, 4)
		want, _ := runOpTier(t, op, sim.TierInterp, in, w, b, nil)
		got, s := runOpTier(t, op, sim.TierVector, in, w, b, nil)
		if s.GemmRuns == 0 {
			t.Fatalf("relu6=%v: conv did not take the GEMM path: %+v", relu6, s)
		}
		if v := got.Data[0]; v == v {
			t.Fatalf("relu6=%v: out[0] = %v, want NaN from +Inf + −Inf", relu6, v)
		}
		assertBitEqual(t, "GEMM epilogue vs interpreter", got.Data, want.Data)
	}
}
