package sim_test

// Cross-tier bit-identity: the vector tier must produce outputs bit-identical
// to the interpreter oracle on every kernel shape topi
// emits, plus crafted nests that exercise the analyzer's edges (strided
// gather, reversal, aliasing, guard bailouts, zero-trip loops, symbolic
// shapes). External test package: sim must not depend on topi.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// allTiers lists the oracle first: tests take its output as the reference.
var allTiers = []sim.Tier{sim.TierInterp, sim.TierVector}

func seeded(seed uint64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillSeq(seed)
	return t
}

// runOpTier executes a constant-shape op on one tier and returns the output
// plus the stats the run accumulated.
func runOpTier(t *testing.T, op *topi.Op, tier sim.Tier, in, w, b, skip *tensor.Tensor) (*tensor.Tensor, sim.StatsSnapshot) {
	t.Helper()
	m := sim.NewMachine()
	m.SetTier(tier)
	st := &sim.ExecStats{}
	m.SetStats(st)
	if op.In != nil {
		m.Bind(op.In, in.Data)
	}
	if op.Weights != nil {
		m.Bind(op.Weights, w.Data)
	}
	if op.Bias != nil {
		m.Bind(op.Bias, b.Data)
	}
	if op.Skip != nil {
		m.Bind(op.Skip, skip.Data)
	}
	for _, sc := range op.Scratches {
		if n, ok := sc.ConstLen(); ok {
			m.Bind(sc, make([]float32, n))
		}
	}
	out := tensor.New(op.OutShape...)
	if op.Out != nil {
		m.Bind(op.Out, out.Data)
	}
	if err := m.Run(op.Kernel, nil); err != nil {
		t.Fatalf("tier %s: %v", tier, err)
	}
	return out, st.Snapshot()
}

func assertBitEqual(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: elem %d: %v (%#08x) != %v (%#08x) (bit-identity contract)", tag, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestTopiKernelsBitIdenticalAcrossTiers runs every kernel family the
// schedules emit on both tiers and requires bit-equal outputs.
func TestTopiKernelsBitIdenticalAcrossTiers(t *testing.T) {
	type k struct {
		name string
		op   *topi.Op
		// wantVector requires the vector tier to actually lower at least
		// one nest for this kernel (no silent full fallback).
		wantVector bool
	}
	var kernels []k
	mk := func(name string, op *topi.Op, err error, wantVector bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kernels = append(kernels, k{name, op, wantVector})
	}
	// Kernels whose one nest must run whole on the window executor: one
	// window run, no vector or GEMM run, and the GEMM loops they compile
	// to. dense-opt is a one-column GEMV the GEMM declines; conv-small has
	// 16 output columns but 1 152 MACs, below gemmMinMACs, with tile levels
	// on both operands, and the GEMM declines it too; pool-avg's write-back
	// is T·(1/F²), which no GEMM loop takes.
	wantWindow := map[string]int64{"dense-opt": 1, "conv-small": 1, "pool-avg": 0}

	convSpec := topi.ConvSpec{Name: "c", C1: 4, H: 12, W: 12, C2: 6, F: 3, S: 1, Relu: true, Bias: true}
	opN, err := topi.Conv2D(convSpec, topi.ConvSched{Naive: true}, topi.ConvIO{})
	mk("conv-naive", opN, err, true)
	opO, err := topi.Conv2D(convSpec, topi.OptSched(5, 2, 2), topi.ConvIO{})
	mk("conv-opt", opO, err, true)
	resSpec := convSpec
	resSpec.Name, resSpec.Residual, resSpec.Relu6, resSpec.Relu = "cr", true, true, false
	opR, err := topi.Conv2D(resSpec, topi.OptSched(5, 2, 2), topi.ConvIO{})
	mk("conv-residual-relu6", opR, err, true)
	opS, err := topi.Conv2D(topi.ConvSpec{Name: "cs", C1: 2, H: 6, W: 6, C2: 4, F: 3, S: 1, Relu: true, Bias: true},
		topi.OptSched(2, 2, 2), topi.ConvIO{})
	mk("conv-small", opS, err, true)
	opD, err := topi.DepthwiseConv2D(topi.DepthwiseSpec{Name: "dw", C: 4, H: 10, W: 10, F: 3, S: 1, Relu: true, Bias: true}, false, 4, topi.ConvIO{})
	mk("depthwise", opD, err, true)
	opFCn, err := topi.Dense(topi.DenseSpec{Name: "fcn", N: 24, M: 10, Relu: true, Bias: true}, true, 0, topi.ConvIO{})
	mk("dense-naive", opFCn, err, true)
	opFC, err := topi.Dense(topi.DenseSpec{Name: "fc", N: 24, M: 10, Relu: true, Bias: true}, false, 8, topi.ConvIO{})
	mk("dense-opt", opFC, err, true)
	opPM, err := topi.Pool2D(topi.PoolSpec{Name: "pm", C: 3, H: 8, W: 8, F: 2, S: 2}, false, topi.ConvIO{}, false)
	mk("pool-max", opPM, err, true)
	opPA, err := topi.Pool2D(topi.PoolSpec{Name: "pa", C: 3, H: 8, W: 8, F: 2, S: 2, Avg: true}, false, topi.ConvIO{}, false)
	mk("pool-avg", opPA, err, true)
	opSM, err := topi.Softmax("sm", 10, false, topi.ConvIO{})
	mk("softmax", opSM, err, true)
	opPad, err := topi.Pad2D(topi.PadSpec{Name: "pd", C: 3, H: 6, W: 6, P: 1}, topi.ConvIO{})
	mk("pad", opPad, err, true)

	for _, tc := range kernels {
		in := seeded(1, 4, 16, 16) // oversized backing data; shapes differ per op
		var ref []float32
		for _, tier := range allTiers {
			w := seeded(2, 8, 4, 3, 3)
			b := seeded(3, 16)
			skip := seeded(4, 8, 12, 12)
			out, st := runOpTier(t, tc.op, tier, in, w, b, skip)
			if tier == sim.TierInterp {
				ref = out.Data
				continue
			}
			assertBitEqual(t, tc.name+"/"+tier.String(), out.Data, ref)
			if tier == sim.TierVector {
				// A whole-nest lowering (gemm.go, window.go) subsumes the
				// per-loop microkernels — any engine satisfies "vectorized".
				vecOK := st.VectorLoops > 0 && st.VectorRuns > 0
				gemmOK := st.GemmLoops > 0 && st.GemmRuns > 0
				windowOK := st.WindowRuns > 0 // a GEMM loop's declined entries run here too
				if tc.wantVector && !vecOK && !gemmOK && !windowOK {
					t.Errorf("%s: expected vectorized nests, got loops=%d runs=%d fallbacks=%d gemm=%d/%d window=%d/%d",
						tc.name, st.VectorLoops, st.VectorRuns, st.FallbackLoops, st.GemmLoops, st.GemmRuns,
						st.WindowLoops, st.WindowRuns)
				}
				if gl, ok := wantWindow[tc.name]; ok && (st.WindowRuns != 1 || st.VectorRuns != 0 || st.GemmRuns != 0 ||
					st.GemmBailouts != 0 || st.GemmLoops != gl) {
					t.Errorf("%s: window/vector/gemm runs %d/%d/%d, gemm_bailouts %d, gemm_loops %d (want 1/0/0, 0, %d)",
						tc.name, st.WindowRuns, st.VectorRuns, st.GemmRuns, st.GemmBailouts, st.GemmLoops, gl)
				}
				if st.GuardBailouts != 0 {
					t.Errorf("%s: unexpected guard bailouts (%d): in-bounds schedules must vectorize cleanly", tc.name, st.GuardBailouts)
				}
			}
		}
	}
}

// TestParamDenseBitIdenticalAcrossTiers covers symbolic-shape kernels: the
// strides are symbolic (evaluated per nest entry), and the one-column GEMV
// the GEMM declines must run whole on the window executor.
func TestParamDenseBitIdenticalAcrossTiers(t *testing.T) {
	pd, err := topi.DenseParam("fcp", 8, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	scalars, err := pd.Bind(32, 6)
	if err != nil {
		t.Fatal(err)
	}
	in := seeded(7, 32)
	w := seeded(8, 6, 32)
	b := seeded(9, 6)
	var ref []float32
	for _, tier := range allTiers {
		m := sim.NewMachine()
		m.SetTier(tier)
		st := &sim.ExecStats{}
		m.SetStats(st)
		m.Bind(pd.Op.In, in.Data)
		m.Bind(pd.Op.Weights, w.Data)
		m.Bind(pd.Op.Bias, b.Data)
		out := make([]float32, 6)
		m.Bind(pd.Op.Out, out)
		if err := m.Run(pd.Op.Kernel, scalars); err != nil {
			t.Fatalf("tier %s: %v", tier, err)
		}
		if tier == sim.TierInterp {
			ref = out
			continue
		}
		assertBitEqual(t, "dense-param/"+tier.String(), out, ref)
		if s := st.Snapshot(); tier == sim.TierVector && (s.GemmLoops != 1 || s.WindowRuns != 1 || s.VectorRuns != 0) {
			t.Errorf("symbolic dense: gemm_loops %d, window_runs %d, vector_runs %d (want 1, 1, 0)",
				s.GemmLoops, s.WindowRuns, s.VectorRuns)
		}
	}
}

// buildNest wraps a store in a counted nest (innermost last).
func buildNest(store ir.Stmt, vars []*ir.Var, extents []int) ir.Stmt {
	s := store
	for i := len(vars) - 1; i >= 0; i-- {
		s = ir.Loop(vars[i], extents[i], s)
	}
	return s
}

func runKernelTier(t *testing.T, kern *ir.Kernel, tier sim.Tier, binds map[*ir.Buffer][]float32, scalars map[*ir.Var]int64) (error, sim.StatsSnapshot) {
	t.Helper()
	m := sim.NewMachine()
	m.SetTier(tier)
	st := &sim.ExecStats{}
	m.SetStats(st)
	for b, data := range binds {
		m.Bind(b, data)
	}
	return m.Run(kern, scalars), st.Snapshot()
}

// TestStridedGatherAndReversal: non-unit and negative strides are affine and
// must vectorize without the copy() fast path corrupting order.
func TestStridedGatherAndReversal(t *testing.T) {
	src := ir.NewBuffer("src", ir.Global, 64)
	dst := ir.NewBuffer("dst", ir.Global, 32)
	i := ir.V("i")
	// dst[i] = src[62 - 2i]: stride -2, base 62.
	store := &ir.Store{Buf: dst, Index: []ir.Expr{i},
		Value: &ir.Load{Buf: src, Index: []ir.Expr{ir.SubE(ir.CInt(62), ir.MulE(i, ir.CInt(2)))}}}
	kern := &ir.Kernel{Name: "rev", Args: []*ir.Buffer{src, dst}, Body: buildNest(store, []*ir.Var{i}, []int{32})}
	if err := kern.Validate(); err != nil {
		t.Fatal(err)
	}
	srcData := make([]float32, 64)
	for j := range srcData {
		srcData[j] = float32(j) * 0.5
	}
	var ref []float32
	for _, tier := range allTiers {
		out := make([]float32, 32)
		err, st := runKernelTier(t, kern, tier, map[*ir.Buffer][]float32{src: srcData, dst: out}, nil)
		if err != nil {
			t.Fatalf("tier %s: %v", tier, err)
		}
		if tier == sim.TierInterp {
			ref = out
			continue
		}
		assertBitEqual(t, "reversal/"+tier.String(), out, ref)
		if tier == sim.TierVector && st.VectorRuns != 1 {
			t.Errorf("reversal gather should vectorize, runs=%d", st.VectorRuns)
		}
	}
}

// TestGuardBailoutReproducesScalarPanic: when the hoisted box check fails,
// the nest must re-run on the scalar closures and surface the identical
// bounds error (message and partial writes included).
func TestGuardBailoutReproducesScalarPanic(t *testing.T) {
	src := ir.NewBuffer("src", ir.Global, 8)
	dst := ir.NewBuffer("dst", ir.Global, 8)
	i := ir.V("i")
	// src[i+4] walks out of bounds at i=4.
	store := &ir.Store{Buf: dst, Index: []ir.Expr{i},
		Value: &ir.Load{Buf: src, Index: []ir.Expr{ir.AddE(i, ir.CInt(4))}}}
	kern := &ir.Kernel{Name: "oob", Args: []*ir.Buffer{src, dst}, Body: buildNest(store, []*ir.Var{i}, []int{8})}
	if err := kern.Validate(); err != nil {
		t.Fatal(err)
	}
	srcData := make([]float32, 8)
	for j := range srcData {
		srcData[j] = float32(j + 1)
	}
	var refErr string
	var refOut []float32
	for _, tier := range allTiers {
		out := make([]float32, 8)
		err, st := runKernelTier(t, kern, tier, map[*ir.Buffer][]float32{src: srcData, dst: out}, nil)
		if err == nil {
			t.Fatalf("tier %s: expected bounds error", tier)
		}
		if !strings.Contains(err.Error(), "out of bounds") {
			t.Fatalf("tier %s: unexpected error %v", tier, err)
		}
		if tier == sim.TierInterp {
			refErr, refOut = err.Error(), out
			continue
		}
		if err.Error() != refErr {
			t.Errorf("tier %s: error %q != oracle %q", tier, err, refErr)
		}
		assertBitEqual(t, "oob-partial-writes/"+tier.String(), out, refOut)
		if tier == sim.TierVector && st.GuardBailouts != 1 {
			t.Errorf("expected exactly one guard bailout, got %d", st.GuardBailouts)
		}
	}
}

// TestAliasedReductionKeepsScalarOrder: when the reduction rhs reads the
// accumulator's own buffer, hoisting the accumulator into a register would
// diverge; the tier must detect the overlap and run in exact element order.
func TestAliasedReductionKeepsScalarOrder(t *testing.T) {
	buf := ir.NewBuffer("a", ir.Global, 16)
	k := ir.V("k")
	// a[0] = a[0] + a[k]: k=0 reads the just-updated accumulator — order
	// sensitive in the extreme.
	store := &ir.Store{Buf: buf, Index: []ir.Expr{ir.CInt(0)},
		Value: ir.AddE(&ir.Load{Buf: buf, Index: []ir.Expr{ir.CInt(0)}},
			&ir.Load{Buf: buf, Index: []ir.Expr{k}})}
	kern := &ir.Kernel{Name: "alias", Args: []*ir.Buffer{buf}, Body: buildNest(store, []*ir.Var{k}, []int{16})}
	if err := kern.Validate(); err != nil {
		t.Fatal(err)
	}
	mkData := func() []float32 {
		d := make([]float32, 16)
		for j := range d {
			d[j] = float32(float32(j)*1.25) + 0.1
		}
		return d
	}
	var ref []float32
	for _, tier := range allTiers {
		data := mkData()
		err, _ := runKernelTier(t, kern, tier, map[*ir.Buffer][]float32{buf: data}, nil)
		if err != nil {
			t.Fatalf("tier %s: %v", tier, err)
		}
		if tier == sim.TierInterp {
			ref = data
			continue
		}
		assertBitEqual(t, "aliased-reduce/"+tier.String(), data, ref)
	}
}

// TestZeroTripNestIsNoop: a zero-extent outer loop must not evaluate inner
// extents, resolve buffers, or bounds-check anything — even when the body
// would be wildly out of bounds.
func TestZeroTripNestIsNoop(t *testing.T) {
	dst := ir.NewBuffer("dst", ir.Global, 4)
	n := ir.Param("n")
	i, j := ir.V("i"), ir.V("j")
	store := &ir.Store{Buf: dst, Index: []ir.Expr{ir.AddE(j, ir.CInt(1000))}, Value: ir.CFloat(1)}
	kern := &ir.Kernel{Name: "zt", Args: []*ir.Buffer{dst}, ScalarArgs: []*ir.Var{n},
		Body: ir.LoopE(i, n, ir.Loop(j, 4, store))}
	if err := kern.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tier := range allTiers {
		out := make([]float32, 4)
		err, _ := runKernelTier(t, kern, tier, map[*ir.Buffer][]float32{dst: out}, map[*ir.Var]int64{n: 0})
		if err != nil {
			t.Fatalf("tier %s: zero-trip nest must be a no-op, got %v", tier, err)
		}
	}
}

// TestVectorTierStatsExposeFallbacks: a kernel mixing a vectorizable nest
// with a non-affine one must report both counters (no silent scalar loops).
func TestVectorTierStatsExposeFallbacks(t *testing.T) {
	src := ir.NewBuffer("src", ir.Global, 16)
	dst := ir.NewBuffer("dst", ir.Global, 16)
	i, j := ir.V("i"), ir.V("j")
	affine := &ir.Store{Buf: dst, Index: []ir.Expr{i}, Value: &ir.Load{Buf: src, Index: []ir.Expr{i}}}
	// mod-indexed: non-affine, stays scalar.
	wrapped := &ir.Store{Buf: dst, Index: []ir.Expr{ir.ModE(j, ir.CInt(16))},
		Value: ir.AddE(&ir.Load{Buf: dst, Index: []ir.Expr{ir.ModE(j, ir.CInt(16))}}, ir.CFloat(1))}
	kern := &ir.Kernel{Name: "mix", Args: []*ir.Buffer{src, dst},
		Body: ir.Seq(ir.Loop(i, 16, affine), ir.Loop(j, 16, wrapped))}
	if err := kern.Validate(); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, 16)
	err, st := runKernelTier(t, kern, sim.TierVector, map[*ir.Buffer][]float32{src: make([]float32, 16), dst: out}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.VectorLoops != 1 || st.FallbackLoops != 1 {
		t.Fatalf("want 1 vector + 1 fallback loop, got %d + %d", st.VectorLoops, st.FallbackLoops)
	}
	if st.CacheMisses != 1 {
		t.Fatalf("first run must be a cache miss, got %d", st.CacheMisses)
	}
}
