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

// im2colShape is a hand-built convolution nest: per (m, y, x), T = 0,
// T += wt[m, c, fy, fx] · in[c, sy·y+fy+by, sx·x+fx] over the reduction
// loops c, fy, fx (c, fx, fy when swapped, with wt's last two axes swapped
// too, so A's rows stay contiguous), out[m, y, x] = T + bias[m].
type im2colShape struct {
	name       string
	m, c, h, w int // output channels; the [C,H,W] activation
	cExt       int // the reduction's channel extent
	fy, fx     int // the window
	sy, sx, by int // the strides and the base row
	yExt, xExt int // the output extents
	swap       bool
	want       string // "gemm", or "twin" (one counted bailout)
}

// kernel builds the nest and returns it with its arguments in binding order
// (output last) and their lengths.
func (sh im2colShape) kernel() (*ir.Kernel, []*ir.Buffer, []int) {
	in := ir.NewBuffer("in", ir.Global, sh.c, sh.h, sh.w)
	wt := ir.NewBuffer("wt", ir.Global, sh.m, sh.cExt, sh.fy, sh.fx)
	bias := ir.NewBuffer("bias", ir.Global, sh.m)
	out := ir.NewBuffer("out", ir.Global, sh.m, sh.yExt, sh.xExt)
	acc := ir.NewBuffer("acc", ir.Private, 1)
	z := []ir.Expr{ir.CInt(0)}
	m, y, x, c, fy, fx := ir.V("m"), ir.V("y"), ir.V("x"), ir.V("c"), ir.V("fy"), ir.V("fx")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	ld := &ir.Load{Buf: in, Index: []ir.Expr{c,
		ir.AddE(ir.AddE(ir.MulE(cs(sh.sy), y), fy), cs(sh.by)), ir.AddE(ir.MulE(cs(sh.sx), x), fx)}}
	lw := &ir.Load{Buf: wt, Index: []ir.Expr{m, c, fy, fx}}
	T := &ir.Load{Buf: acc, Index: z}
	red := ir.Stmt(&ir.Store{Buf: acc, Index: z, Value: ir.AddE(T, ir.MulE(lw, ld))})
	if sh.swap {
		wt.Shape[2], wt.Shape[3] = wt.Shape[3], wt.Shape[2]
		lw.Index[2], lw.Index[3] = fx, fy
		red = ir.Loop(c, sh.cExt, ir.Loop(fx, sh.fx, ir.Loop(fy, sh.fy, red)))
	} else {
		red = ir.Loop(c, sh.cExt, ir.Loop(fy, sh.fy, ir.Loop(fx, sh.fx, red)))
	}
	body := ir.Loop(m, sh.m, ir.Loop(y, sh.yExt, ir.Loop(x, sh.xExt, ir.Seq(
		&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(0)},
		red,
		&ir.Store{Buf: out, Index: []ir.Expr{m, y, x}, Value: ir.AddE(T, &ir.Load{Buf: bias, Index: []ir.Expr{m}})},
	))))
	args := []*ir.Buffer{in, wt, bias, out}
	lens := []int{sh.c * sh.h * sh.w, sh.m * sh.cExt * sh.fy * sh.fx, sh.m, sh.m * sh.yExt * sh.xExt}
	return &ir.Kernel{Name: "im2col", Args: args, Body: ir.Seq(&ir.Alloc{Buf: acc}, body)}, args, lens
}

// TestIm2colNearMissesStayExact: the GEMM's image source takes exactly the
// convolution nests it can gather — F = 3 at s = 1 and 2, ResNet's 1×1
// projection and the 7×7 stem at s = 2, a reduction over a prefix of the
// activation's channels, and outputs covering some of its rows — and every
// near miss falls to the twin with one counted bailout, never to a wrong
// GEMM: a non-square window, x and y strides that differ, the fx and fy
// k-phases swapped, an x range covering part of an output row, a nonzero
// base row, and a channel extent past the activation's C1 (out of bounds,
// so both tiers fail the same way). A stride-2 nest cannot be the zero-copy
// [K,N] source, whose columns are unit-stride, so its GEMM run is the image
// source's. All are bit-identical to the interpreter on data carrying -0
// and subnormals.
func TestIm2colNearMissesStayExact(t *testing.T) {
	specials := []float32{float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x007fffff)}
	cases := []im2colShape{
		{name: "f3_s1", m: 8, c: 3, h: 12, w: 12, cExt: 3, fy: 3, fx: 3, sy: 1, sx: 1, yExt: 10, xExt: 10, want: "gemm"},
		{name: "f3_s2", m: 8, c: 3, h: 13, w: 13, cExt: 3, fy: 3, fx: 3, sy: 2, sx: 2, yExt: 6, xExt: 6, want: "gemm"},
		{name: "proj_f1_s2", m: 8, c: 16, h: 14, w: 14, cExt: 16, fy: 1, fx: 1, sy: 2, sx: 2, yExt: 7, xExt: 7, want: "gemm"},
		{name: "stem_f7_s2", m: 8, c: 3, h: 21, w: 21, cExt: 3, fy: 7, fx: 7, sy: 2, sx: 2, yExt: 8, xExt: 8, want: "gemm"},
		{name: "channel_prefix", m: 8, c: 4, h: 12, w: 12, cExt: 3, fy: 3, fx: 3, sy: 1, sx: 1, yExt: 10, xExt: 10, want: "gemm"},
		{name: "partial_y", m: 8, c: 3, h: 12, w: 12, cExt: 3, fy: 3, fx: 3, sy: 1, sx: 1, yExt: 7, xExt: 10, want: "gemm"},
		{name: "non_square", m: 8, c: 3, h: 12, w: 12, cExt: 3, fy: 3, fx: 2, sy: 1, sx: 1, yExt: 10, xExt: 11, want: "twin"},
		{name: "strides_differ", m: 8, c: 3, h: 13, w: 13, cExt: 3, fy: 3, fx: 3, sy: 2, sx: 1, yExt: 6, xExt: 11, want: "twin"},
		{name: "phases_swapped", m: 8, c: 3, h: 12, w: 12, cExt: 3, fy: 3, fx: 3, sy: 1, sx: 1, yExt: 10, xExt: 10, swap: true, want: "twin"},
		{name: "partial_x", m: 8, c: 3, h: 12, w: 12, cExt: 3, fy: 3, fx: 3, sy: 1, sx: 1, yExt: 10, xExt: 9, want: "twin"},
		{name: "partial_x_one_row", m: 8, c: 8, h: 12, w: 12, cExt: 8, fy: 3, fx: 3, sy: 1, sx: 1, yExt: 1, xExt: 9, want: "twin"},
		{name: "nonzero_base", m: 8, c: 3, h: 12, w: 12, cExt: 3, fy: 3, fx: 3, sy: 1, sx: 1, by: 1, yExt: 9, xExt: 10, want: "twin"},
		{name: "channel_past_c1", m: 8, c: 3, h: 12, w: 12, cExt: 4, fy: 3, fx: 3, sy: 1, sx: 1, yExt: 10, xExt: 10, want: "twin"},
	}
	for _, sh := range cases {
		kern, args, lens := sh.kernel()
		run := func(tier sim.Tier) ([]float32, error, sim.StatsSnapshot) {
			binds := map[*ir.Buffer][]float32{}
			for i, b := range args[:3] {
				binds[b] = windowInput(uint64(i+1), lens[i], specials)
			}
			out := make([]float32, lens[3])
			binds[args[3]] = out
			err, st := runKernelTier(t, kern, tier, binds, nil)
			return out, err, st
		}
		want, wantErr := func() ([]float32, error) { o, e, _ := run(sim.TierInterp); return o, e }()
		got, err, st := run(sim.TierVector)
		if (err == nil) != (wantErr == nil) || (err == nil) != (sh.name != "channel_past_c1") {
			t.Fatalf("%s: vector tier error %v, interpreter error %v", sh.name, err, wantErr)
		}
		assertBitEqual(t, sh.name, got, want)
		path := map[bool]string{true: "gemm", false: "twin"}[st.GemmRuns == 1]
		if st.GemmLoops != 1 || st.GemmRuns+st.GemmBailouts != 1 || st.WindowRuns != 0 || path != sh.want {
			t.Errorf("%s: gemm_loops %d, gemm_runs %d, gemm_bailouts %d, window_runs %d: ran on the %s, want the %s",
				sh.name, st.GemmLoops, st.GemmRuns, st.GemmBailouts, st.WindowRuns, path, sh.want)
		}
	}
}
