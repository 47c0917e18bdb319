package sim_test

// The strided-window executor (window.go): every tile nest that is not
// matmul-shaped — depthwise convolution, max/min/sum pooling — must run once
// per kernel call on the window path, bit-identical to the interpreter
// oracle, with special values in every operand, with the destination
// aliasing the input, with an out-of-range binding, and without allocating
// on a warm machine.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/topi"
)

// Special operands. Max/min windows get NaN payloads of both signs: math.Max
// defines the result (the canonical NaN), so every engine must agree on its
// bits. Which payload survives when two different NaNs meet in an addition
// is not defined by Go — amd64 keeps the payload of the instruction's
// destination operand, which the compiler picks — and two engines can
// already pick differently. So additive
// windows (depthwise, sum pooling) carry only the NaN the arithmetic itself
// generates for Inf−Inf, the one NaN every addition here can produce.
var (
	posInf      = float32(math.Inf(1))
	cmpSpecials = []float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00123),
		posInf, -posInf,
		float32(math.Copysign(0, -1)), 0,
		math.Float32frombits(0x00000001), math.Float32frombits(0x80000010),
		math.MaxFloat32, -math.MaxFloat32,
	}
	addSpecials = append([]float32{posInf - posInf}, cmpSpecials[2:]...)
)

// windowInput is a seeded tensor with about one element in sixteen replaced
// by one of specials, at seeded positions.
func windowInput(seed uint64, n int, specials []float32) []float32 {
	data := seeded(seed, n).Data
	r := seed*0x9e3779b97f4a7c15 + 1
	for j := range data {
		r = r*6364136223846793005 + 1442695040888963407
		if r>>60 == 0 {
			data[j] = specials[(r>>32)%uint64(len(specials))]
		}
	}
	return data
}

// windowCase is one kernel with its bindings: arguments in binding order
// (all but the output get seeded special-laden data) and the output.
type windowCase struct {
	name    string
	kern    *ir.Kernel
	scalars map[*ir.Var]int64
	args    []*ir.Buffer
	lens    []int
	out     *ir.Buffer
	outLen  int
	special []float32
}

// run executes the case on one tier with fresh bindings and returns the
// output and the run's stats.
func (wc *windowCase) run(t *testing.T, tier sim.Tier) ([]float32, sim.StatsSnapshot) {
	t.Helper()
	binds := map[*ir.Buffer][]float32{}
	for i, b := range wc.args {
		binds[b] = windowInput(uint64(i+1), wc.lens[i], wc.special)
	}
	out := make([]float32, wc.outLen)
	binds[wc.out] = out
	err, st := runKernelTier(t, wc.kern, tier, binds, wc.scalars)
	if err != nil {
		t.Fatalf("%s/%s: %v", wc.name, tier, err)
	}
	return out, st
}

// checkWindowCase requires one window run, bit-identical to the oracle.
func checkWindowCase(t *testing.T, wc *windowCase) {
	t.Helper()
	want, _ := wc.run(t, sim.TierInterp)
	got, st := wc.run(t, sim.TierVector)
	assertBitEqual(t, wc.name, got, want)
	if st.WindowLoops != 1 || st.WindowRuns != 1 || st.GemmLoops != 0 ||
		st.GemmBailouts != 0 || st.GuardBailouts != 0 || st.FallbackLoops != 0 {
		t.Fatalf("%s: window %d/%d, gemm_loops %d, gemm_bailouts %d, guard_bailouts %d, fallback_loops %d (want 1/1, 0, 0, 0, 0)",
			wc.name, st.WindowLoops, st.WindowRuns, st.GemmLoops, st.GemmBailouts, st.GuardBailouts, st.FallbackLoops)
	}
}

// poolNest builds a pooling kernel by hand: per output point, T = init,
// T = T ⊕ in[c, s·y+fy, s·x+fx] over the F×F window, out = T. The H×W input
// gives an h2×w2 output; h2 may exceed the input's range (the out-of-range
// case).
func poolNest(op ir.BinOp, c, h, w, h2, w2, f, s int) (*ir.Kernel, *ir.Buffer, *ir.Buffer) {
	in := ir.NewBuffer("in", ir.Global, c, h, w)
	out := ir.NewBuffer("out", ir.Global, c, h2, w2)
	acc := ir.NewBuffer("acc", ir.Private, 1)
	z := []ir.Expr{ir.CInt(0)}
	cc, y, x, fy, fx := ir.V("c"), ir.V("y"), ir.V("x"), ir.V("fy"), ir.V("fx")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	ld := &ir.Load{Buf: in, Index: []ir.Expr{cc, ir.AddE(ir.MulE(cs(s), y), fy), ir.AddE(ir.MulE(cs(s), x), fx)}}
	init := map[ir.BinOp]float64{ir.Add: 0, ir.MaxOp: -3.402823e38, ir.MinOp: 3.402823e38}[op]
	body := ir.Loop(cc, c, ir.Loop(y, h2, ir.Loop(x, w2, ir.Seq(
		&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(init)},
		ir.Loop(fy, f, ir.Loop(fx, f, &ir.Store{Buf: acc, Index: z,
			Value: &ir.Binary{Op: op, A: &ir.Load{Buf: acc, Index: z}, B: ld}})),
		&ir.Store{Buf: out, Index: []ir.Expr{cc, y, x}, Value: &ir.Load{Buf: acc, Index: z}},
	))))
	return &ir.Kernel{Name: "pool", Args: []*ir.Buffer{in, out}, Body: ir.Seq(&ir.Alloc{Buf: acc}, body)}, in, out
}

// TestWindowBitIdenticalToInterp is the property over the window shapes:
// concrete and symbolic depthwise kernels at every F∈{1,2,3,5}, S∈{1,2,3},
// W2 tiling dividing W2, bias on/off and activation none/ReLU/ReLU6, plus
// max/min/sum pooling at every F and S, all against the interpreter.
func TestWindowBitIdenticalToInterp(t *testing.T) {
	const c, h2, w2 = 3, 4, 6
	acts := []struct {
		name        string
		relu, relu6 bool
	}{{"none", false, false}, {"relu", true, false}, {"relu6", false, true}}
	for _, f := range []int{1, 2, 3, 5} {
		for _, s := range []int{1, 2, 3} {
			h, w := (h2-1)*s+f, (w2-1)*s+f
			for _, w2vec := range []int{1, 2, 3, 6} {
				for _, bias := range []bool{false, true} {
					for _, a := range acts {
						name := fmt.Sprintf("dw_f%d_s%d_v%d_b%v_%s", f, s, w2vec, bias, a.name)
						op, err := topi.DepthwiseConv2D(topi.DepthwiseSpec{Name: name, C: c, H: h, W: w, F: f, S: s,
							Relu: a.relu, Relu6: a.relu6, Bias: bias}, false, w2vec, topi.ConvIO{})
						if err != nil {
							t.Fatal(err)
						}
						checkWindowCase(t, depthwiseCase(name, op, nil, c, h, w, f, h2*w2))
						p, err := topi.DepthwiseParamAct(name+"_p", f, s, w2vec, a.relu, a.relu6, bias, false)
						if err != nil {
							t.Fatal(err)
						}
						sc, err := p.Bind(c, h, w)
						if err != nil {
							t.Fatal(err)
						}
						checkWindowCase(t, depthwiseCase(name+"_p", p.Op, sc, c, h, w, f, h2*w2))
					}
				}
			}
			for _, op := range []ir.BinOp{ir.MaxOp, ir.MinOp, ir.Add} {
				kern, in, out := poolNest(op, c, h, w, h2, w2, f, s)
				sp := cmpSpecials
				if op == ir.Add {
					sp = addSpecials
				}
				checkWindowCase(t, &windowCase{name: fmt.Sprintf("pool_%s_f%d_s%d", op, f, s), kern: kern,
					args: []*ir.Buffer{in}, lens: []int{c * h * w}, out: out, outLen: c * h2 * w2, special: sp})
			}
			pm, err := topi.Pool2D(topi.PoolSpec{Name: "pm", C: c, H: h, W: w, F: f, S: s}, false, topi.ConvIO{}, false)
			if err != nil {
				t.Fatal(err)
			}
			checkWindowCase(t, &windowCase{name: fmt.Sprintf("pool2d_f%d_s%d", f, s), kern: pm.Kernel,
				args: []*ir.Buffer{pm.In}, lens: []int{c * h * w}, out: pm.Out, outLen: c * h2 * w2, special: cmpSpecials})
			pp, err := topi.PoolParam("pp", f, s, false, false)
			if err != nil {
				t.Fatal(err)
			}
			checkWindowCase(t, &windowCase{name: fmt.Sprintf("poolparam_f%d_s%d", f, s), kern: pp.Op.Kernel,
				scalars: pp.Bind(c, h, w), args: []*ir.Buffer{pp.Op.In}, lens: []int{c * h * w},
				out: pp.Op.Out, outLen: c * h2 * w2, special: cmpSpecials})
		}
	}
}

func depthwiseCase(name string, op *topi.Op, sc map[*ir.Var]int64, c, h, w, f, hw2 int) *windowCase {
	wc := &windowCase{name: name, kern: op.Kernel, scalars: sc,
		args: []*ir.Buffer{op.In, op.Weights}, lens: []int{c * h * w, c * f * f}, out: op.Out, outLen: c * hw2,
		special: addSpecials}
	if op.Bias != nil {
		wc.args, wc.lens = append(wc.args, op.Bias), append(wc.lens, c)
	}
	return wc
}

// laneNest builds a window nest with every knob the lane plan reads: per
// output row of w2 points tiled by tile slots, T[xi] = init, T[xi] ⊕=
// in[c, s·y+fy, s·(tile·xo+xi)+fx] (times wt[c,fy,fx] when mul) over the F×F
// window, out[c, y, tile·xo+xi] = act(T[xi] + bias[c]). It returns the
// kernel and its arguments in binding order, output last.
func laneNest(op ir.BinOp, mul bool, c, h, w, h2, w2, tile, f, s int, bias bool, act string) (*ir.Kernel, []*ir.Buffer) {
	in := ir.NewBuffer("in", ir.Global, c, h, w)
	out := ir.NewBuffer("out", ir.Global, c, h2, w2)
	tmp := ir.NewBuffer("tmp", ir.Private, tile)
	args := []*ir.Buffer{in}
	cc, y, xo, xi, fy, fx := ir.V("c"), ir.V("y"), ir.V("xo"), ir.V("xi"), ir.V("fy"), ir.V("fx")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	ox := ir.AddE(ir.MulE(xo, cs(tile)), xi)
	t := []ir.Expr{xi}
	rhs := ir.Expr(&ir.Load{Buf: in, Index: []ir.Expr{cc, ir.AddE(ir.MulE(cs(s), y), fy), ir.AddE(ir.MulE(cs(s), ox), fx)}})
	if mul {
		wt := ir.NewBuffer("wt", ir.Global, c, f, f)
		args = append(args, wt)
		rhs = ir.MulE(rhs, &ir.Load{Buf: wt, Index: []ir.Expr{cc, fy, fx}})
	}
	init := map[ir.BinOp]float64{ir.Add: 0, ir.MaxOp: -3.402823e38, ir.MinOp: 3.402823e38}[op]
	wv := ir.Expr(&ir.Load{Buf: tmp, Index: t})
	if bias {
		b := ir.NewBuffer("bias", ir.Global, c)
		args = append(args, b)
		wv = ir.AddE(wv, &ir.Load{Buf: b, Index: []ir.Expr{cc}})
	}
	switch act {
	case "relu":
		wv = ir.MaxE(wv, ir.CFloat(0))
	case "relu6":
		wv = ir.MinE(ir.MaxE(wv, ir.CFloat(0)), ir.CFloat(6))
	}
	body := ir.Loop(cc, c, ir.Loop(y, h2, ir.Loop(xo, w2/tile, ir.Seq(
		ir.Loop(xi, tile, &ir.Store{Buf: tmp, Index: t, Value: ir.CFloat(init)}),
		ir.Loop(xi, tile, ir.Loop(fy, f, ir.Loop(fx, f, &ir.Store{Buf: tmp, Index: t,
			Value: &ir.Binary{Op: op, A: &ir.Load{Buf: tmp, Index: t}, B: rhs}}))),
		ir.Loop(xi, tile, &ir.Store{Buf: out, Index: []ir.Expr{cc, y, ox}, Value: wv}),
	))))
	args = append(args, out)
	return &ir.Kernel{Name: "lanes", Args: args, Body: ir.Seq(&ir.Alloc{Buf: tmp}, body)}, args
}

// TestWindowLanesBitIdenticalToScalarFold is the lane path's property: with
// the lane fold forced on and forced off, every window nest gives the same
// bits, and the interpreter's. It covers lane counts 1–17, 56 and 112
// (every row of two or more lanes a merged run; tiles of 1 slot, of the
// whole row, of 7 and of a proper divisor), lane strides 1 and 2 (on the
// lane path) and 3 (declined to the scalar fold), one-lane rows (declined
// too), products, sums, max and min, with and without a bias
// chain load and under each activation, on data with NaN payloads (max and
// min; sums and products carry the one NaN their arithmetic makes, see
// cmpSpecials), ±0, ±Inf and subnormals.
func TestWindowLanesBitIdenticalToScalarFold(t *testing.T) {
	const c, h2, f = 2, 2, 3
	lanes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 56, 112}
	kinds := []struct {
		op  ir.BinOp
		mul bool
	}{{ir.Add, true}, {ir.Add, false}, {ir.MaxOp, false}, {ir.MinOp, false}}
	acts := []string{"none", "relu", "relu6"}
	combo := 0
	for _, w2 := range lanes {
		tiles := []int{1, w2}
		if w2%7 == 0 && w2 != 7 {
			tiles = append(tiles, 7)
		}
		for d := 2; d < w2 && d < 7; d++ {
			if w2%d == 0 {
				tiles = append(tiles, d)
				break
			}
		}
		for _, tile := range tiles {
			for _, s := range []int{1, 2, 3} {
				for _, k := range kinds {
					combo++
					bias, act := combo%2 == 0, acts[combo/2%3]
					h, w := (h2-1)*s+f, (w2-1)*s+f
					kern, args := laneNest(k.op, k.mul, c, h, w, h2, w2, tile, f, s, bias, act)
					name := fmt.Sprintf("%s_mul%v_w%d_t%d_s%d_b%v_%s", k.op, k.mul, w2, tile, s, bias, act)
					sp := cmpSpecials
					if k.op == ir.Add {
						sp = addSpecials
					}
					lens := []int{c * h * w}
					if k.mul {
						lens = append(lens, c*f*f)
					}
					if bias {
						lens = append(lens, c)
					}
					wc := &windowCase{name: name, kern: kern, args: args[:len(args)-1], lens: lens,
						out: args[len(args)-1], outLen: c * h2 * w2, special: sp}
					want, _ := wc.run(t, sim.TierInterp)
					restore := sim.SetLanes(false)
					scalar, _ := wc.run(t, sim.TierVector)
					restore()
					runs, stop := sim.CountLaneRuns()
					got, st := wc.run(t, sim.TierVector)
					stop()
					assertBitEqual(t, name+" scalar fold", scalar, want)
					assertBitEqual(t, name+" lane fold", got, want)
					if st.WindowRuns != 1 {
						t.Fatalf("%s: window_runs %d, want 1", name, st.WindowRuns)
					}
					// Declined by the lane plan, a nest takes the per-point
					// fold: an F×F window's taps have gaps, so a product
					// with one slot per point is no four-point GEMV.
					wantMerged, wantMulti, wantScalar := int64(1), int64(0), int64(0)
					if s == 3 || w2 == 1 {
						wantMerged, wantScalar = 0, 1
					}
					if m, mu, sc := runs.Merged.Load(), runs.Multi.Load(), runs.Scalar.Load(); sim.CPUHasLanes &&
						(m != wantMerged || mu != wantMulti || sc != wantScalar) {
						t.Fatalf("%s: merged lane runs %d, four-point folds %d, scalar folds %d (want %d, %d, %d)",
							name, m, mu, sc, wantMerged, wantMulti, wantScalar)
					}
				}
			}
		}
	}
}

// TestWindowAliasedOutputIsExact: the depthwise output is bound inside the
// input's backing array, so later windows read earlier outputs. The window
// path keeps the scalar phase order per outer point and must reproduce the
// interpreter's aliased result without bailing, at strides 1 and 2, with
// the lane fold on and off. An output that overlaps the input's reach makes
// the lane plan decline the merged run, whose row of folds would read
// outputs the scalar order has not yet written, for the scalar fold. An
// output inside the input's bound slice but past every element the nest
// reads keeps the merged run: disjointness is checked by range, not by
// buffer.
func TestWindowAliasedOutputIsExact(t *testing.T) {
	const c, h, w, f = 3, 10, 10, 3
	for _, s := range []int{1, 2} {
		o := (h-f)/s + 1 // 8 or 4 outputs a row, tiled by 4 or 2 slots
		op, err := topi.DepthwiseConv2D(topi.DepthwiseSpec{Name: "dwa", C: c, H: h, W: w, F: f, S: s, Relu6: true, Bias: true},
			false, o/2, topi.ConvIO{})
		if err != nil {
			t.Fatal(err)
		}
		for _, shift := range []int{0, 37, c * h * w} {
			run := func(tier sim.Tier) ([]float32, sim.StatsSnapshot) {
				backing := windowInput(1, max(c*h*w, shift+c*o*o), addSpecials)
				binds := map[*ir.Buffer][]float32{op.In: backing, op.Weights: windowInput(2, c*f*f, addSpecials),
					op.Bias: windowInput(3, c, addSpecials), op.Out: backing[shift : shift+c*o*o]}
				err, st := runKernelTier(t, op.Kernel, tier, binds, nil)
				if err != nil {
					t.Fatal(err)
				}
				return backing, st
			}
			want, _ := run(sim.TierInterp)
			for _, lanes := range []bool{false, true} {
				restore := sim.SetLanes(lanes)
				runs, stop := sim.CountLaneRuns()
				got, st := run(sim.TierVector)
				stop()
				restore()
				tag := fmt.Sprintf("aliased s %d shift %d lanes %v", s, shift, lanes)
				assertBitEqual(t, tag, got, want)
				if st.WindowRuns != 1 || st.GemmBailouts != 0 {
					t.Errorf("%s: window_runs %d, gemm_bailouts %d (want 1, 0)", tag, st.WindowRuns, st.GemmBailouts)
				}
				if !lanes || !sim.CPUHasLanes {
					continue
				}
				wantMerged := int64(0)
				if shift == c*h*w {
					wantMerged = 1
				}
				if m, sc := runs.Merged.Load(), runs.Scalar.Load(); m != wantMerged || sc != 1-wantMerged {
					t.Errorf("%s: merged lane runs %d, scalar folds %d (want %d, %d)", tag, m, sc, wantMerged, 1-wantMerged)
				}
			}
		}
	}
}

// TestWindowOutOfRangeReplaysTwin: a pooling nest whose last output row
// reads past the input. The window's box check refuses the entry, counted
// as one GEMM bailout; the twin, plain closures that check nothing ahead
// and so count no guard failure, must surface the interpreter's exact error
// after the same partial writes.
func TestWindowOutOfRangeReplaysTwin(t *testing.T) {
	const c, h2, w2, f, s = 2, 3, 4, 3, 2
	h, w := (h2-1)*s+f, (w2-1)*s+f
	kern, in, out := poolNest(ir.MaxOp, c, h, w, h2+1, w2, f, s)
	var refErr string
	var refOut []float32
	for _, tier := range allTiers {
		o := make([]float32, c*(h2+1)*w2)
		err, st := runKernelTier(t, kern, tier, map[*ir.Buffer][]float32{in: windowInput(1, c*h*w, cmpSpecials), out: o}, nil)
		if err == nil || !strings.Contains(err.Error(), "out of bounds") {
			t.Fatalf("tier %s: want a bounds error, got %v", tier, err)
		}
		if tier == sim.TierInterp {
			refErr, refOut = err.Error(), o
			continue
		}
		if err.Error() != refErr {
			t.Errorf("error %q != oracle %q", err, refErr)
		}
		assertBitEqual(t, "out-of-range partial writes", o, refOut)
		if st.GemmBailouts != 1 || st.GuardBailouts != 0 || st.WindowRuns != 0 {
			t.Errorf("gemm_bailouts %d, guard_bailouts %d, window_runs %d (want 1, 0, 0)",
				st.GemmBailouts, st.GuardBailouts, st.WindowRuns)
		}
	}
}

// TestWindowWarmMachineAllocatesNothing: once a machine has compiled the
// kernels and sized their tables and lane scratch, window runs allocate
// nothing: a depthwise layer and a max pool on the lane path where the CPU
// has it, LeNet-5's dense1 (a GEMV the GEMM declines) on the four-point
// fold, and MobileNetV1's 7×7 average pool (a scaled write-back, one output
// per channel, so on the per-point fold).
func TestWindowWarmMachineAllocatesNothing(t *testing.T) {
	p, err := topi.DepthwiseParamAct("dwz", 3, 2, 7, false, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	const c, h, w = 8, 29, 29
	sc, err := p.Bind(c, h, w)
	if err != nil {
		t.Fatal(err)
	}
	pool, in, out := poolNest(ir.MaxOp, c, h, w, 14, 14, 3, 2)
	pd, err := topi.DenseParam("fcz", 32, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	dsc, err := pd.Bind(256, 120)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := topi.PoolParam("avgz", 7, 1, true, false)
	if err != nil {
		t.Fatal(err)
	}
	asc := pa.Bind(1024, 7, 7)
	m := sim.NewMachine()
	st := &sim.ExecStats{}
	m.SetStats(st)
	m.Bind(p.Op.In, windowInput(1, c*h*w, addSpecials))
	m.Bind(p.Op.Weights, windowInput(2, c*9, addSpecials))
	m.Bind(p.Op.Bias, windowInput(3, c, addSpecials))
	m.Bind(p.Op.Out, make([]float32, c*14*14))
	m.Bind(in, windowInput(4, c*h*w, cmpSpecials))
	m.Bind(out, make([]float32, c*14*14))
	m.Bind(pd.Op.In, windowInput(5, 256, addSpecials))
	m.Bind(pd.Op.Weights, windowInput(6, 120*256, addSpecials))
	m.Bind(pd.Op.Bias, windowInput(7, 120, addSpecials))
	m.Bind(pd.Op.Out, make([]float32, 120))
	m.Bind(pa.Op.In, windowInput(8, 1024*7*7, addSpecials))
	m.Bind(pa.Op.Out, make([]float32, 1024))
	run := func() {
		for _, k := range []struct {
			kern *ir.Kernel
			sc   map[*ir.Var]int64
		}{{p.Op.Kernel, sc}, {pool, nil}, {pd.Op.Kernel, dsc}, {pa.Op.Kernel, asc}} {
			if err := m.Run(k.kern, k.sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	runs, stop := sim.CountLaneRuns()
	defer stop()
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm window runs allocate %.1f times per run, want 0", allocs)
	}
	// Four kernels per run: the first run, AllocsPerRun's warm-up and its 20.
	if s := st.Snapshot(); s.WindowRuns != 4*22 || s.VectorRuns != 0 || s.GemmBailouts != 0 {
		t.Errorf("window_runs %d, vector_runs %d, gemm_bailouts %d (want %d, 0, 0)",
			s.WindowRuns, s.VectorRuns, s.GemmBailouts, 4*22)
	}
	if m := runs.Multi.Load(); m != 22 {
		t.Errorf("four-point folds %d, want 22: dense1 left the four-point fold", m)
	}
	if m := runs.Merged.Load(); sim.CPUHasLanes && m != 2*22 {
		t.Errorf("merged lane runs %d, want %d: the lane path is off", m, 2*22)
	}
	if sc := runs.Scalar.Load(); sim.CPUHasLanes && sc != 22 {
		t.Errorf("per-point folds %d, want 22: the average pool left the per-point fold", sc)
	}
}

// BenchmarkWindowDeployedShapes times the window executor at the shapes the
// deployed networks run it on: MobileNetV1's 13 depthwise layers (F=3,
// ReLU6, bias, W2 tiled by 7), ResNet-18's 3×3/2 max pool, LeNet-5's two
// 2×2/2 max pools and the global 7×7 average pools of MobileNetV1 and
// ResNet-18, each a warm symbolic kernel as the folded plan binds it. Each
// shape runs twice, with the lane kernels on ("lanes") and off ("scalar"),
// and reports wall time per output point and window multiply-adds per
// second (GMAC/s), or compares (Gcmp/s) or adds (Gadd/s) per second for
// the pools; run it with -cpu 1. An average pool's output is one point per
// channel, which has no lane axis, so both of its runs take the scalar
// fold.
func BenchmarkWindowDeployedShapes(b *testing.B) {
	type shape struct {
		name       string
		c, h, w, s int
		pool       bool
		f          int
		avg        bool
	}
	shapes := []shape{
		{"mobilenet_dw1", 32, 114, 114, 1, false, 3, false},
		{"mobilenet_dw2", 64, 114, 114, 2, false, 3, false},
		{"mobilenet_dw3", 128, 58, 58, 1, false, 3, false},
		{"mobilenet_dw4", 128, 58, 58, 2, false, 3, false},
		{"mobilenet_dw5", 256, 30, 30, 1, false, 3, false},
		{"mobilenet_dw6", 256, 30, 30, 2, false, 3, false},
		{"mobilenet_dw7", 512, 16, 16, 1, false, 3, false},
		{"mobilenet_dw8", 512, 16, 16, 1, false, 3, false},
		{"mobilenet_dw9", 512, 16, 16, 1, false, 3, false},
		{"mobilenet_dw10", 512, 16, 16, 1, false, 3, false},
		{"mobilenet_dw11", 512, 16, 16, 1, false, 3, false},
		{"mobilenet_dw12", 512, 16, 16, 2, false, 3, false},
		{"mobilenet_dw13", 1024, 9, 9, 1, false, 3, false},
		{"resnet18_maxpool", 64, 114, 114, 2, true, 3, false},
		{"lenet_pool1", 6, 26, 26, 2, true, 2, false},
		{"lenet_pool2", 16, 11, 11, 2, true, 2, false},
		{name: "mobilenet_avgpool", c: 1024, h: 7, w: 7, s: 1, pool: true, f: 7, avg: true},
		{name: "resnet18_avgpool", c: 512, h: 7, w: 7, s: 1, pool: true, f: 7, avg: true},
	}
	for _, sh := range shapes {
		for _, path := range []struct {
			name  string
			lanes bool
		}{{"lanes", true}, {"scalar", false}} {
			b.Run(sh.name+"/"+path.name, func(b *testing.B) {
				if path.lanes && !sim.CPUHasLanes {
					b.Skip("CPU has no AVX2")
				}
				defer sim.SetLanes(path.lanes)()
				m := sim.NewMachine()
				h2, w2 := (sh.h-sh.f)/sh.s+1, (sh.w-sh.f)/sh.s+1
				var kern *ir.Kernel
				var sc map[*ir.Var]int64
				var in, out *ir.Buffer
				if sh.pool {
					p, err := topi.PoolParam("pool", sh.f, sh.s, sh.avg, false)
					if err != nil {
						b.Fatal(err)
					}
					kern, sc, in, out = p.Op.Kernel, p.Bind(sh.c, sh.h, sh.w), p.Op.In, p.Op.Out
				} else {
					p, err := topi.DepthwiseParamAct("dw", sh.f, sh.s, 7, false, true, true, false)
					if err != nil {
						b.Fatal(err)
					}
					if sc, err = p.Bind(sh.c, sh.h, sh.w); err != nil {
						b.Fatal(err)
					}
					kern, in, out = p.Op.Kernel, p.Op.In, p.Op.Out
					m.Bind(p.Op.Weights, seeded(2, sh.c*sh.f*sh.f).Data)
					m.Bind(p.Op.Bias, seeded(3, sh.c).Data)
				}
				m.Bind(in, seeded(1, sh.c*sh.h*sh.w).Data)
				m.Bind(out, make([]float32, sh.c*h2*w2))
				st := &sim.ExecStats{}
				m.SetStats(st)
				runs, stop := sim.CountLaneRuns()
				err := m.Run(kern, sc)
				stop()
				if err != nil {
					b.Fatal(err)
				}
				if s := st.Snapshot(); s.WindowRuns != 1 || (path.lanes && w2 > 1) != (runs.Merged.Load() == 1) {
					b.Fatalf("%s: not on the %s window path: %+v", sh.name, path.name, s)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := m.Run(kern, sc); err != nil {
						b.Fatal(err)
					}
				}
				el := b.Elapsed().Seconds()
				outs := float64(b.N) * float64(sh.c*h2*w2)
				unit := "GMAC/s"
				switch {
				case sh.avg:
					unit = "Gadd/s"
				case sh.pool:
					unit = "Gcmp/s"
				}
				b.ReportMetric(el*1e9/outs, "ns/output")
				b.ReportMetric(outs*float64(sh.f*sh.f)/el/1e9, unit)
			})
		}
	}
}
