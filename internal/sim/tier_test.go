package sim_test

// Cross-tier bit-identity: the vector tier must produce outputs bit-identical
// to the interpreter oracle on every kernel shape topi emits, plus crafted
// nests that exercise the copy lowering's edges (strided gather, reversal,
// overlapping self-copies, guard bailouts, zero-trip loops) and the near
// misses that stay on the closures. External test package: sim must not
// depend on topi.

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
// schedules emit on both tiers, requires bit-equal outputs, and pins which
// executor each kernel runs on.
func TestTopiKernelsBitIdenticalAcrossTiers(t *testing.T) {
	// where pins a kernel's vector-tier counts: the GEMM loops it compiles
	// to, its GEMM, window and row (copy/pad) runs, and the innermost loops
	// left on the closures. No kernel here bails out or fails a guard.
	type where struct{ gemmLoops, gemm, window, rows, fallbacks int64 }
	type k struct {
		name string
		op   *topi.Op
		want where
	}
	var kernels []k
	mk := func(name string, op *topi.Op, err error, want where) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kernels = append(kernels, k{name, op, want})
	}
	gemm := where{gemmLoops: 1, gemm: 1}
	window := where{window: 1}
	// dense-opt is a one-column GEMV the GEMM declines; conv-small has 16
	// output columns but 1 152 MACs, below gemmMinMACs, with tile levels on
	// both operands, and the GEMM declines it too. Both compile as GEMM
	// loops and run on the window executor. pool-avg's write-back is
	// T·(1/F²), which no GEMM loop takes. The naive schedules and softmax
	// match no whole nest and run on the closures: conv-naive's reduction
	// and write-back loops, dense-naive's one reduction loop, and softmax's
	// max, exp, sum and divide loops.
	declined := where{gemmLoops: 1, window: 1}

	convSpec := topi.ConvSpec{Name: "c", C1: 4, H: 12, W: 12, C2: 6, F: 3, S: 1, Relu: true, Bias: true}
	opN, err := topi.Conv2D(convSpec, topi.ConvSched{Naive: true}, topi.ConvIO{})
	mk("conv-naive", opN, err, where{fallbacks: 2})
	opO, err := topi.Conv2D(convSpec, topi.OptSched(5, 2, 2), topi.ConvIO{})
	mk("conv-opt", opO, err, gemm)
	resSpec := convSpec
	resSpec.Name, resSpec.Residual, resSpec.Relu6, resSpec.Relu = "cr", true, true, false
	opR, err := topi.Conv2D(resSpec, topi.OptSched(5, 2, 2), topi.ConvIO{})
	mk("conv-residual-relu6", opR, err, gemm)
	opS, err := topi.Conv2D(topi.ConvSpec{Name: "cs", C1: 2, H: 6, W: 6, C2: 4, F: 3, S: 1, Relu: true, Bias: true},
		topi.OptSched(2, 2, 2), topi.ConvIO{})
	mk("conv-small", opS, err, declined)
	opD, err := topi.DepthwiseConv2D(topi.DepthwiseSpec{Name: "dw", C: 4, H: 10, W: 10, F: 3, S: 1, Relu: true, Bias: true}, false, 4, topi.ConvIO{})
	mk("depthwise", opD, err, window)
	opFCn, err := topi.Dense(topi.DenseSpec{Name: "fcn", N: 24, M: 10, Relu: true, Bias: true}, true, 0, topi.ConvIO{})
	mk("dense-naive", opFCn, err, where{fallbacks: 1})
	opFC, err := topi.Dense(topi.DenseSpec{Name: "fc", N: 24, M: 10, Relu: true, Bias: true}, false, 8, topi.ConvIO{})
	mk("dense-opt", opFC, err, declined)
	opPM, err := topi.Pool2D(topi.PoolSpec{Name: "pm", C: 3, H: 8, W: 8, F: 2, S: 2}, false, topi.ConvIO{}, false)
	mk("pool-max", opPM, err, window)
	opPA, err := topi.Pool2D(topi.PoolSpec{Name: "pa", C: 3, H: 8, W: 8, F: 2, S: 2, Avg: true}, false, topi.ConvIO{}, false)
	mk("pool-avg", opPA, err, window)
	opSM, err := topi.Softmax("sm", 10, false, topi.ConvIO{})
	mk("softmax", opSM, err, where{fallbacks: 4})
	opPad, err := topi.Pad2D(topi.PadSpec{Name: "pd", C: 3, H: 6, W: 6, P: 1}, topi.ConvIO{})
	mk("pad", opPad, err, where{rows: 1})

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
			got := where{st.GemmLoops, st.GemmRuns, st.WindowRuns, st.VectorRuns, st.FallbackLoops}
			if got != tc.want || st.VectorLoops != tc.want.rows || st.GemmBailouts != 0 || st.GuardBailouts != 0 {
				t.Errorf("%s: gemm_loops/gemm/window/row runs/fallbacks %v, vector_loops %d, bailouts %d/%d; want %v, %d, 0/0",
					tc.name, got, st.VectorLoops, st.GemmBailouts, st.GuardBailouts, tc.want, tc.want.rows)
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
// must run on the copy lowering without the copy() fast path corrupting
// order, and a warm machine's copy runs allocate nothing.
func TestStridedGatherAndReversal(t *testing.T) {
	src := ir.NewBuffer("src", ir.Global, 64)
	ld := func(idx ir.Expr) *ir.Load { return &ir.Load{Buf: src, Index: []ir.Expr{idx}} }
	i, j := ir.V("i"), ir.V("j")
	rev := ir.NewBuffer("rev", ir.Global, 32)
	tr := ir.NewBuffer("tr", ir.Global, 8, 8)
	cases := []struct {
		name string
		dst  *ir.Buffer
		body ir.Stmt
	}{
		// rev[i] = src[62 - 2i]: stride -2, base 62.
		{"reversal", rev, buildNest(&ir.Store{Buf: rev, Index: []ir.Expr{i},
			Value: ld(ir.SubE(ir.CInt(62), ir.MulE(i, ir.CInt(2))))}, []*ir.Var{i}, []int{32})},
		// tr[i, j] = src[8j + i]: the destination is contiguous across both
		// levels and the source is not, so the rows must not fold into one.
		{"transpose", tr, buildNest(&ir.Store{Buf: tr, Index: []ir.Expr{i, j},
			Value: ld(ir.AddE(ir.MulE(j, ir.CInt(8)), i))}, []*ir.Var{i, j}, []int{8, 8})},
	}
	srcData := make([]float32, 64)
	for k := range srcData {
		srcData[k] = float32(k) * 0.5
	}
	for _, c := range cases {
		kern := &ir.Kernel{Name: c.name, Args: []*ir.Buffer{src, c.dst}, Body: c.body}
		if err := kern.Validate(); err != nil {
			t.Fatal(err)
		}
		n, _ := c.dst.ConstLen()
		var ref []float32
		for _, tier := range allTiers {
			out := make([]float32, n)
			err, st := runKernelTier(t, kern, tier, map[*ir.Buffer][]float32{src: srcData, c.dst: out}, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, tier, err)
			}
			if tier == sim.TierInterp {
				ref = out
				continue
			}
			assertBitEqual(t, c.name, out, ref)
			if st.VectorLoops != 1 || st.VectorRuns != 1 || st.FallbackLoops != 0 {
				t.Errorf("%s: vector_loops %d, vector_runs %d, fallback_loops %d (want 1, 1, 0)",
					c.name, st.VectorLoops, st.VectorRuns, st.FallbackLoops)
			}
		}
		m := sim.NewMachine()
		m.Bind(src, srcData)
		m.Bind(c.dst, make([]float32, n))
		run := func() {
			if err := m.Run(kern, nil); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: warm copy runs allocate %.1f times per run, want 0", c.name, allocs)
		}
	}
}

// TestCopyOverlappingSelfCopies: a copy whose source and destination rows
// overlap must run element by element in nest order, never as a memmove.
// The forward shifts smear the first element (or row) across the buffer in
// the interpreter, which a memmove would not reproduce; the backward shifts
// read each element before it is overwritten. The row cases are contiguous
// across rows, so the copy folds them into one overlapping row.
func TestCopyOverlappingSelfCopies(t *testing.T) {
	at := func(b *ir.Buffer, idx ...ir.Expr) *ir.Load { return &ir.Load{Buf: b, Index: idx} }
	one := ir.CInt(1)
	cases := []struct {
		name    string
		shape   []int
		extents []int
		body    func(a *ir.Buffer, v []*ir.Var) *ir.Store
	}{
		{"forward-1d", []int{16}, []int{15}, func(a *ir.Buffer, v []*ir.Var) *ir.Store {
			return &ir.Store{Buf: a, Index: []ir.Expr{ir.AddE(v[0], one)}, Value: at(a, v[0])}
		}},
		{"backward-1d", []int{16}, []int{15}, func(a *ir.Buffer, v []*ir.Var) *ir.Store {
			return &ir.Store{Buf: a, Index: []ir.Expr{v[0]}, Value: at(a, ir.AddE(v[0], one))}
		}},
		{"forward-2d", []int{4, 8}, []int{4, 7}, func(a *ir.Buffer, v []*ir.Var) *ir.Store {
			return &ir.Store{Buf: a, Index: []ir.Expr{v[0], ir.AddE(v[1], one)}, Value: at(a, v[0], v[1])}
		}},
		{"backward-2d", []int{4, 8}, []int{4, 7}, func(a *ir.Buffer, v []*ir.Var) *ir.Store {
			return &ir.Store{Buf: a, Index: []ir.Expr{v[0], v[1]}, Value: at(a, v[0], ir.AddE(v[1], one))}
		}},
		{"rows-forward", []int{4, 8}, []int{3, 8}, func(a *ir.Buffer, v []*ir.Var) *ir.Store {
			return &ir.Store{Buf: a, Index: []ir.Expr{ir.AddE(v[0], one), v[1]}, Value: at(a, v[0], v[1])}
		}},
		{"rows-backward", []int{4, 8}, []int{3, 8}, func(a *ir.Buffer, v []*ir.Var) *ir.Store {
			return &ir.Store{Buf: a, Index: []ir.Expr{v[0], v[1]}, Value: at(a, ir.AddE(v[0], one), v[1])}
		}},
	}
	for _, c := range cases {
		a := ir.NewBuffer("a", ir.Global, c.shape...)
		vars := []*ir.Var{ir.V("y"), ir.V("x")}[:len(c.extents)]
		kern := &ir.Kernel{Name: c.name, Args: []*ir.Buffer{a}, Body: buildNest(c.body(a, vars), vars, c.extents)}
		if err := kern.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var ref []float32
		for _, tier := range allTiers {
			data := seeded(5, c.shape...).Data
			err, st := runKernelTier(t, kern, tier, map[*ir.Buffer][]float32{a: data}, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, tier, err)
			}
			if tier == sim.TierInterp {
				ref = data
				continue
			}
			assertBitEqual(t, c.name, data, ref)
			if st.VectorLoops != 1 || st.VectorRuns != 1 || st.GuardBailouts != 0 || st.FallbackLoops != 0 {
				t.Errorf("%s: vector_loops %d, vector_runs %d, guard_bailouts %d, fallback_loops %d (want 1, 1, 0, 0)",
					c.name, st.VectorLoops, st.VectorRuns, st.GuardBailouts, st.FallbackLoops)
			}
		}
	}
}

// TestGuardBailoutReproducesScalarPanic: when the copy's box check fails,
// the nest must re-run on the closures and surface the identical bounds
// error (message and partial writes included).
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

// TestAliasedReductionKeepsScalarOrder: a reduction whose rhs reads the
// accumulator's own buffer matches no whole nest and is no copy, so it runs
// on the closures in exact element order.
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
		err, st := runKernelTier(t, kern, tier, map[*ir.Buffer][]float32{buf: data}, nil)
		if err != nil {
			t.Fatalf("tier %s: %v", tier, err)
		}
		if tier == sim.TierInterp {
			ref = data
			continue
		}
		assertBitEqual(t, "aliased-reduce/"+tier.String(), data, ref)
		if st.VectorRuns != 0 || st.FallbackLoops != 1 {
			t.Errorf("aliased reduction: vector_runs %d, fallback_loops %d (want 0, 1)", st.VectorRuns, st.FallbackLoops)
		}
	}
}

// TestZeroTripNestIsNoop: a zero-extent outer loop must not evaluate inner
// extents, resolve buffers, or bounds-check anything — even when the copy
// would be wildly out of bounds.
func TestZeroTripNestIsNoop(t *testing.T) {
	src := ir.NewBuffer("src", ir.Global, 4)
	dst := ir.NewBuffer("dst", ir.Global, 4)
	n := ir.Param("n")
	i, j := ir.V("i"), ir.V("j")
	store := &ir.Store{Buf: dst, Index: []ir.Expr{ir.AddE(j, ir.CInt(1000))},
		Value: &ir.Load{Buf: src, Index: []ir.Expr{ir.AddE(j, ir.CInt(1000))}}}
	kern := &ir.Kernel{Name: "zt", Args: []*ir.Buffer{src, dst}, ScalarArgs: []*ir.Var{n},
		Body: ir.LoopE(i, n, ir.Loop(j, 4, store))}
	if err := kern.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tier := range allTiers {
		out := make([]float32, 4)
		err, st := runKernelTier(t, kern, tier, map[*ir.Buffer][]float32{src: make([]float32, 4), dst: out},
			map[*ir.Var]int64{n: 0})
		if err != nil {
			t.Fatalf("tier %s: zero-trip nest must be a no-op, got %v", tier, err)
		}
		if tier == sim.TierVector && (st.VectorLoops != 1 || st.VectorRuns != 0 || st.GuardBailouts != 0) {
			t.Errorf("zero-trip copy: vector_loops %d, vector_runs %d, guard_bailouts %d (want 1, 0, 0)",
				st.VectorLoops, st.VectorRuns, st.GuardBailouts)
		}
	}
}

// TestVectorTierStatsExposeFallbacks: near misses of the copy lowering — a
// scaled load, a channel read, a mod-indexed load and a copy under an
// IfThen — stay on the closures, each counted as one fallback loop, and are
// bit-identical to the interpreter.
func TestVectorTierStatsExposeFallbacks(t *testing.T) {
	src := ir.NewBuffer("src", ir.Global, 16)
	dst := ir.NewBuffer("dst", ir.Global, 16)
	ch := &ir.Channel{Name: "ch", Depth: 16}
	i := ir.V("i")
	copyOf := func(v ir.Expr) ir.Stmt { return &ir.Store{Buf: dst, Index: []ir.Expr{i}, Value: v} }
	cases := []struct {
		name string
		body ir.Stmt
	}{
		{"scaled", copyOf(ir.MulE(&ir.Load{Buf: src, Index: []ir.Expr{i}}, ir.CFloat(1)))},
		{"channel", copyOf(&ir.ChannelRead{Ch: ch})},
		{"mod-indexed", copyOf(&ir.Load{Buf: src, Index: []ir.Expr{ir.ModE(ir.AddE(i, ir.CInt(5)), ir.CInt(16))}})},
		{"if-then", &ir.IfThen{Cond: &ir.Binary{Op: ir.LT, A: i, B: ir.CInt(9)},
			Then: copyOf(&ir.Load{Buf: src, Index: []ir.Expr{i}})}},
	}
	for _, c := range cases {
		kern := &ir.Kernel{Name: c.name, Args: []*ir.Buffer{src, dst}, Body: ir.Loop(i, 16, c.body)}
		if err := kern.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var ref []float32
		for _, tier := range allTiers {
			m := sim.NewMachine()
			m.SetTier(tier)
			st := &sim.ExecStats{}
			m.SetStats(st)
			in := seeded(6, 16).Data
			out := make([]float32, 16)
			m.Bind(src, in)
			m.Bind(dst, out)
			for _, v := range in {
				m.Channel(ch).Push(v)
			}
			if err := m.Run(kern, nil); err != nil {
				t.Fatalf("%s/%s: %v", c.name, tier, err)
			}
			if tier == sim.TierInterp {
				ref = out
				continue
			}
			assertBitEqual(t, c.name, out, ref)
			if s := st.Snapshot(); s.VectorLoops != 0 || s.VectorRuns != 0 || s.FallbackLoops != 1 || s.CacheMisses != 1 {
				t.Errorf("%s: vector_loops %d, vector_runs %d, fallback_loops %d, cache_misses %d (want 0, 0, 1, 1)",
					c.name, s.VectorLoops, s.VectorRuns, s.FallbackLoops, s.CacheMisses)
			}
		}
	}
}
