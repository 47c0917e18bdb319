package sim_test

// The pad row lowering (pad.go): TVM's div/mod pad nest must run as row
// fills and row copies on the vector tier, bit-identical to the interpreter,
// replay the scalar twin on every guard failure, and leave every structural
// near-miss on the closures.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/topi"
)

// specialInput is a seeded tensor carrying a NaN payload, −0, +Inf and −Inf.
func specialInput(seed uint64, shape ...int) []float32 {
	data := seeded(seed, shape...).Data
	specials := []float32{math.Float32frombits(0x7fc00001), float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1))}
	for j, v := range specials {
		data[(j*len(data))/len(specials)] = v
	}
	return data
}

// filled returns n copies of v.
func filled(n int, v float32) []float32 {
	out := make([]float32, n)
	for j := range out {
		out[j] = v
	}
	return out
}

// padSentinel pre-fills pad outputs: no pad writes it.
const padSentinel = -12345.5

// TestPadParamBitIdenticalAcrossTiers: the symbolic pad kernel of the folded
// networks, both stride modes and pad widths, lowers on the vector tier and
// moves every bit (NaN payload, −0, ±Inf) exactly as the oracle does.
func TestPadParamBitIdenticalAcrossTiers(t *testing.T) {
	for _, workaround := range []bool{true, false} {
		for _, p := range []int{1, 3} {
			for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 7}, {4, 14, 14}} {
				tag := fmt.Sprintf("workaround=%v/P=%d/%dx%dx%d", workaround, p, sh[0], sh[1], sh[2])
				pp, err := topi.PadParam("pp", p, workaround)
				if err != nil {
					t.Fatal(err)
				}
				in := specialInput(11, sh[0], sh[1], sh[2])
				outLen := sh[0] * (sh[1] + 2*p) * (sh[2] + 2*p)
				var ref []float32
				for _, tier := range allTiers {
					out := filled(outLen, padSentinel)
					err, st := runKernelTier(t, pp.Op.Kernel, tier,
						map[*ir.Buffer][]float32{pp.Op.In: in, pp.Op.Out: out}, pp.Bind(sh[0], sh[1], sh[2]))
					if err != nil {
						t.Fatalf("%s/%s: %v", tag, tier, err)
					}
					if tier == sim.TierInterp {
						ref = out
						continue
					}
					assertBitEqual(t, tag+"/"+tier.String(), out, ref)
					if tier == sim.TierVector && (st.VectorLoops < 1 || st.VectorRuns < 1 ||
						st.FallbackLoops != 0 || st.GuardBailouts != 0) {
						t.Errorf("%s: vector_loops %d, vector_runs %d, fallback_loops %d, guard_bailouts %d",
							tag, st.VectorLoops, st.VectorRuns, st.FallbackLoops, st.GuardBailouts)
					}
				}
			}
		}
	}
}

// padNest holds the pieces of a hand-built pad nest in the topi.Pad2D form;
// tests mutate single pieces to build guard failures and near-misses.
type padNest struct {
	in, out     *ir.Buffer
	args        []*ir.Buffer
	scalars     []*ir.Var
	i           *ir.Var
	n           ir.Expr
	ch, y, x    ir.Expr
	cond        ir.Expr
	then, fill  ir.Expr
	second      bool // append a second store to the body
	c, h, w, p  int
	inLen, outN int
}

func newPadNest(c, h, w, p int) *padNest {
	hp, wp := h+2*p, w+2*p
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	pn := &padNest{c: c, h: h, w: w, p: p, i: ir.V("i"), n: cs(c * hp * wp),
		in:   ir.NewBuffer("in", ir.Global, c, h, w),
		out:  ir.NewBuffer("out", ir.Global, c, hp, wp),
		fill: ir.CFloat(0), inLen: c * h * w, outN: c * hp * wp}
	pn.args = []*ir.Buffer{pn.in, pn.out}
	pn.ch = ir.DivE(pn.i, cs(hp*wp))
	rem := ir.ModE(pn.i, cs(hp*wp))
	pn.y = ir.DivE(rem, cs(wp))
	pn.x = ir.ModE(rem, cs(wp))
	pn.rebox()
	return pn
}

// rebox rebuilds the box condition and the input load from the current
// index pieces and input buffer.
func (pn *padNest) rebox() {
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	pn.cond = &ir.Binary{Op: ir.And,
		A: &ir.Binary{Op: ir.And,
			A: &ir.Binary{Op: ir.GE, A: pn.y, B: cs(pn.p)},
			B: &ir.Binary{Op: ir.LT, A: pn.y, B: cs(pn.p + pn.h)}},
		B: &ir.Binary{Op: ir.And,
			A: &ir.Binary{Op: ir.GE, A: pn.x, B: cs(pn.p)},
			B: &ir.Binary{Op: ir.LT, A: pn.x, B: cs(pn.p + pn.w)}}}
	pn.then = &ir.Load{Buf: pn.in, Index: []ir.Expr{pn.ch, ir.SubE(pn.y, cs(pn.p)), ir.SubE(pn.x, cs(pn.p))}}
}

func (pn *padNest) kernel() *ir.Kernel {
	store := &ir.Store{Buf: pn.out, Index: []ir.Expr{pn.ch, pn.y, pn.x},
		Value: &ir.Select{Cond: pn.cond, A: pn.then, B: pn.fill}}
	body := ir.Stmt(store)
	if pn.second {
		body = ir.Seq(store, store)
	}
	return &ir.Kernel{Name: "hpad", Args: pn.args, ScalarArgs: pn.scalars, Body: ir.LoopE(pn.i, pn.n, body)}
}

// runPad runs the nest on one tier with a special-valued input of inLen
// elements (nil when inLen < 0: the input stays unbound) and a sentinel
// output of outN elements.
func (pn *padNest) runPad(t *testing.T, tier sim.Tier, scalars map[*ir.Var]int64) ([]float32, error, sim.StatsSnapshot) {
	t.Helper()
	binds := map[*ir.Buffer][]float32{}
	if pn.inLen >= 0 {
		binds[pn.in] = specialInput(5, pn.inLen)
	}
	out := filled(pn.outN, padSentinel)
	binds[pn.out] = out
	err, st := runKernelTier(t, pn.kernel(), tier, binds, scalars)
	return out, err, st
}

// TestPadGuardBailoutsMatchInterp: an output or input too small for the
// nest, by its declared shape or by its binding, must fail with the
// interpreter's exact error and partial output, via one guard bailout.
func TestPadGuardBailoutsMatchInterp(t *testing.T) {
	cases := map[string]func(pn *padNest){
		"output-shape": func(pn *padNest) {
			pn.out = ir.NewBuffer("out", ir.Global, pn.c-1, pn.h+2*pn.p, pn.w+2*pn.p)
			pn.args = []*ir.Buffer{pn.in, pn.out}
			pn.outN = (pn.c - 1) * (pn.h + 2*pn.p) * (pn.w + 2*pn.p)
		},
		"input-shape": func(pn *padNest) {
			pn.in = ir.NewBuffer("in", ir.Global, pn.c-1, pn.h, pn.w)
			pn.rebox()
			pn.args = []*ir.Buffer{pn.in, pn.out}
			pn.inLen = (pn.c - 1) * pn.h * pn.w
		},
		// Bindings shorter than the declared shape: the buffer is left out
		// of the arguments so the pre-run size check cannot catch it.
		"output-binding": func(pn *padNest) {
			pn.args = []*ir.Buffer{pn.in}
			pn.outN -= 5
		},
		"input-binding": func(pn *padNest) {
			pn.args = []*ir.Buffer{pn.out}
			pn.inLen -= 5
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) { padGuardCase(t, name, mutate) })
	}
}

func padGuardCase(t *testing.T, name string, mutate func(*padNest)) {
	var wantErr string
	var wantOut []float32
	for _, tier := range allTiers {
		pn := newPadNest(3, 4, 5, 2)
		mutate(pn)
		out, err, st := pn.runPad(t, tier, nil)
		if err == nil || !strings.Contains(err.Error(), "out of") {
			t.Fatalf("%s/%s: expected a bounds error, got %v", name, tier, err)
		}
		if tier == sim.TierInterp {
			wantErr, wantOut = err.Error(), out
			continue
		}
		if err.Error() != wantErr {
			t.Errorf("%s: error %q, interpreter %q", name, err, wantErr)
		}
		assertBitEqual(t, name+"/partial-output", out, wantOut)
		if st.VectorLoops != 1 || st.GuardBailouts != 1 || st.VectorRuns != 0 {
			t.Errorf("%s: vector_loops %d, guard_bailouts %d, vector_runs %d (want 1, 1, 0)",
				name, st.VectorLoops, st.GuardBailouts, st.VectorRuns)
		}
	}
}

// TestPadEmptyBoxNeverTouchesInput: a box that is never true makes the nest
// a pure fill; no tier may resolve the (unbound) input.
func TestPadEmptyBoxNeverTouchesInput(t *testing.T) {
	for _, tier := range allTiers {
		pn := newPadNest(2, 3, 3, 1)
		pn.cond = &ir.Binary{Op: ir.And, A: pn.cond, B: &ir.Binary{Op: ir.GE, A: pn.y, B: ir.CInt(1000)}}
		pn.args = []*ir.Buffer{pn.out}
		pn.inLen = -1
		out, err, st := pn.runPad(t, tier, nil)
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		assertBitEqual(t, "empty-box/"+tier.String(), out, make([]float32, pn.outN))
		if tier == sim.TierVector && (st.VectorRuns != 1 || st.GuardBailouts != 0) {
			t.Errorf("empty box: vector_runs %d, guard_bailouts %d (want 1, 0)", st.VectorRuns, st.GuardBailouts)
		}
	}
}

// TestPadRaggedExtentReplaysTwin: a run-time trip count that is not a whole
// number of planes cannot run as rows; the twin reproduces the scalar output.
func TestPadRaggedExtentReplaysTwin(t *testing.T) {
	n := ir.Param("n")
	var ref []float32
	for _, tier := range allTiers {
		pn := newPadNest(3, 4, 4, 1)
		pn.n, pn.scalars = n, []*ir.Var{n}
		out, err, st := pn.runPad(t, tier, map[*ir.Var]int64{n: int64(pn.outN - 7)})
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		if tier == sim.TierInterp {
			ref = out
			continue
		}
		assertBitEqual(t, "ragged/"+tier.String(), out, ref)
		if tier == sim.TierVector && (st.VectorLoops != 1 || st.GuardBailouts != 1 || st.VectorRuns != 0) {
			t.Errorf("ragged: vector_loops %d, guard_bailouts %d, vector_runs %d (want 1, 1, 0)",
				st.VectorLoops, st.GuardBailouts, st.VectorRuns)
		}
	}
}

// TestPadNegativeZeroFill: a −0 fill keeps its sign bit on every tier, in
// the pad rows and in a plain fill nest.
func TestPadNegativeZeroFill(t *testing.T) {
	negZero := ir.CFloat(math.Copysign(0, -1))
	dst := ir.NewBuffer("dst", ir.Global, 8)
	j := ir.V("j")
	fill := &ir.Kernel{Name: "nz", Args: []*ir.Buffer{dst},
		Body: ir.Loop(j, 8, &ir.Store{Buf: dst, Index: []ir.Expr{j}, Value: negZero})}
	for _, tier := range allTiers {
		pn := newPadNest(2, 3, 4, 2)
		pn.fill = negZero
		out, err, st := pn.runPad(t, tier, nil)
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		if math.Float32bits(out[0]) != 0x80000000 {
			t.Errorf("pad/%s: fill bits %#08x, want −0", tier, math.Float32bits(out[0]))
		}
		if tier == sim.TierVector && st.VectorRuns != 1 {
			t.Errorf("pad: vector_runs %d, want 1", st.VectorRuns)
		}
		data := make([]float32, 8)
		if err, _ := runKernelTier(t, fill, tier, map[*ir.Buffer][]float32{dst: data}, nil); err != nil {
			t.Fatal(err)
		}
		assertBitEqual(t, "fill/"+tier.String(), data, filled(8, float32(math.Copysign(0, -1))))
	}
}

// TestPadNearMissesStayOnClosures: nests that resemble the pad form but are
// not it must not lower; each leaves one counted fallback loop and still
// matches the oracle.
func TestPadNearMissesStayOnClosures(t *testing.T) {
	cases := map[string]func(pn *padNest){
		// x recovers its remainder modulo W instead of the plane size D.
		"mismatched-D": func(pn *padNest) {
			wp := ir.CInt(int64(pn.w + 2*pn.p))
			pn.x = ir.ModE(ir.ModE(pn.i, wp), wp)
			pn.rebox()
		},
		"load-else-arm": func(pn *padNest) {
			pn.fill = &ir.Load{Buf: pn.in, Index: []ir.Expr{ir.CInt(0), ir.CInt(0), ir.CInt(0)}}
		},
		"condition-on-i": func(pn *padNest) {
			pn.cond = &ir.Binary{Op: ir.And, A: pn.cond, B: &ir.Binary{Op: ir.LT, A: pn.i, B: pn.n}}
		},
		// box || (y < 0): the same set, but not a conjunction.
		"or-shaped-box": func(pn *padNest) {
			pn.cond = &ir.Binary{Op: ir.MaxOp, A: pn.cond, B: &ir.Binary{Op: ir.LT, A: pn.y, B: ir.CInt(0)}}
		},
		"second-store": func(pn *padNest) { pn.second = true },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) { padNearMissCase(t, name, mutate) })
	}
}

func padNearMissCase(t *testing.T, name string, mutate func(*padNest)) {
	var ref []float32
	for _, tier := range allTiers {
		pn := newPadNest(2, 3, 4, 1)
		mutate(pn)
		out, err, st := pn.runPad(t, tier, nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, tier, err)
		}
		if tier == sim.TierInterp {
			ref = out
			continue
		}
		assertBitEqual(t, name+"/"+tier.String(), out, ref)
		if tier == sim.TierVector && (st.VectorLoops != 0 || st.FallbackLoops != 1) {
			t.Errorf("%s: vector_loops %d, fallback_loops %d (want 0, 1)", name, st.VectorLoops, st.FallbackLoops)
		}
	}
}
