package sim_test

// GEMM-lowering guard tests: when the run-time stride verification rejects a
// nest (here: output aliasing the input), the machine must replay the nest on
// its scalar twin, count the bailout, and still produce output bit-identical
// to the interpreter under the same (aliased) bindings.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/topi"
)

// TestDeployedKernelsLowerToGemm pins the GEMM tier on the conv and dense
// kernels the deployed networks run, at their deployed shapes: each kernel
// is one nest that compiles as one GEMM loop and runs as one GEMM run, with
// no row run, fallback loop, bailout or guard failure. lenet_dense1 is a
// one-column GEMV, below gemmMinCols: it compiles as a GEMM nest, but the
// GEMM declines it and it runs as one window run instead.
func TestDeployedKernelsLowerToGemm(t *testing.T) {
	type kcase struct {
		name     string
		op       *topi.Op
		scalars  map[*ir.Var]int64
		sizes    map[*ir.Buffer]int
		gemmRuns bool
	}
	mustOp := func(op *topi.Op, err error) *topi.Op {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	// param binds a folded stride-1 conv: ReLU or ReLU6, with or without the
	// residual add, bias always.
	param := func(name string, f int, relu6, skip bool, c1, h, w, c2 int) kcase {
		t.Helper()
		p, err := topi.ConvParamAct(name, f, 1, topi.ConvSched{W2vec: 7, C2vec: 4, C1vec: 4}, !relu6, relu6, true, skip, false)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := p.Bind(c1, h, w, c2)
		if err != nil {
			t.Fatal(err)
		}
		ho, wo := h-f+1, w-f+1
		sizes := map[*ir.Buffer]int{p.Op.In: c1 * h * w, p.Op.Weights: c2 * c1 * f * f, p.Op.Bias: c2, p.Op.Out: c2 * ho * wo}
		if skip {
			sizes[p.Op.Skip] = c2 * ho * wo
		}
		return kcase{name: name, op: p.Op, scalars: sc, sizes: sizes, gemmRuns: true}
	}
	conv1 := mustOp(topi.Conv2D(topi.ConvSpec{Name: "conv1", C1: 1, H: 28, W: 28, C2: 6, F: 5, S: 1, Relu: true, Bias: true},
		topi.OptSched(6, 2, 1), topi.ConvIO{}))
	conv2 := mustOp(topi.Conv2D(topi.ConvSpec{Name: "conv2", C1: 6, H: 12, W: 12, C2: 16, F: 5, S: 1, Relu: true, Bias: true},
		topi.OptSched(4, 4, 2), topi.ConvIO{}))
	dense1 := mustOp(topi.Dense(topi.DenseSpec{Name: "dense1", N: 256, M: 120, Relu: true, Bias: true}, false, 32, topi.ConvIO{}))
	cases := []kcase{
		{name: "lenet_conv1", op: conv1, gemmRuns: true, sizes: map[*ir.Buffer]int{
			conv1.In: 28 * 28, conv1.Weights: 6 * 25, conv1.Bias: 6, conv1.Out: 6 * 24 * 24}},
		{name: "lenet_conv2", op: conv2, gemmRuns: true, sizes: map[*ir.Buffer]int{
			conv2.In: 6 * 12 * 12, conv2.Weights: 16 * 150, conv2.Bias: 16, conv2.Out: 16 * 8 * 8}},
		{name: "lenet_dense1", op: dense1, sizes: map[*ir.Buffer]int{
			dense1.In: 256, dense1.Weights: 120 * 256, dense1.Bias: 120, dense1.Out: 120}},
		param("mobilenet_fold_pw", 1, true, false, 64, 14, 14, 128),
		param("resnet_fold_conv3", 3, false, true, 128, 16, 16, 128),
	}
	for _, c := range cases {
		binds := map[*ir.Buffer][]float32{}
		for b, n := range c.sizes {
			binds[b] = seeded(uint64(n), n).Data
		}
		err, st := runKernelTier(t, c.op.Kernel, sim.TierVector, binds, c.scalars)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st.GemmLoops != 1 || st.VectorRuns != 0 || st.FallbackLoops != 0 || st.GemmBailouts != 0 || st.GuardBailouts != 0 {
			t.Errorf("%s: gemm_loops %d, vector_runs %d, fallback_loops %d, gemm_bailouts %d, guard_bailouts %d (want 1, 0, 0, 0, 0)",
				c.name, st.GemmLoops, st.VectorRuns, st.FallbackLoops, st.GemmBailouts, st.GuardBailouts)
		}
		wantGemm := int64(0)
		if c.gemmRuns {
			wantGemm = 1
		}
		if st.GemmRuns != wantGemm || st.WindowRuns != 1-wantGemm {
			t.Errorf("%s: gemm_runs %d, window_runs %d, want %d, %d", c.name, st.GemmRuns, st.WindowRuns, wantGemm, 1-wantGemm)
		}
	}
}

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
// too. −0 inputs ride along. The residual conv adds a skip input after the
// bias — the write-back's two chains, broadcast then per column — holding
// NaNs of either sign and payload (quiet and signaling), ±Inf and −0. Each
// runs with the lane write-back on and off.
func TestGemmReluEpilogueNaNBits(t *testing.T) {
	specials := []uint32{0x7fc00000, 0xffc12345, 0x7f800001, 0x7f800000, 0xff800000, 0x80000000}
	for _, residual := range []bool{false, true} {
		for _, relu6 := range []bool{false, true} {
			op, err := topi.Conv2D(topi.ConvSpec{Name: "nan", C1: 3, H: 10, W: 10, C2: 4, F: 3, S: 1,
				Relu: !relu6, Relu6: relu6, Bias: true, Residual: residual}, topi.OptSched(4, 2, 1), topi.ConvIO{})
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
			skip := seeded(4, 4, 8, 8)
			for i, bits := range specials {
				skip.Data[43*i+7] = math.Float32frombits(bits)
			}
			tag := fmt.Sprintf("residual=%v relu6=%v", residual, relu6)
			want, _ := runOpTier(t, op, sim.TierInterp, in, w, b, skip)
			for _, lanes := range []bool{true, false} {
				restore := sim.SetLanes(lanes)
				rows, stop := sim.CountEmitRows()
				got, s := runOpTier(t, op, sim.TierVector, in, w, b, skip)
				stop()
				restore()
				if s.GemmRuns == 0 || s.GemmBailouts != 0 {
					t.Fatalf("%s lanes=%v: conv did not take the GEMM path cleanly: %+v", tag, lanes, s)
				}
				if onLanes := rows.Lanes.Load() > 0; onLanes != (lanes && sim.CPUHasLanes) {
					t.Fatalf("%s lanes=%v: rows on the lane kernel %d, on the twin %d", tag, lanes, rows.Lanes.Load(), rows.Scalar.Load())
				}
				if v := got.Data[0]; v == v {
					t.Fatalf("%s lanes=%v: out[0] = %v, want NaN from +Inf + −Inf", tag, lanes, v)
				}
				assertBitEqual(t, fmt.Sprintf("GEMM epilogue vs interpreter, %s lanes=%v", tag, lanes), got.Data, want.Data)
			}
		}
	}
}
