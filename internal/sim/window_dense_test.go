package sim_test

// The window executor's two newer shapes: dense layers (one-column GEMVs the
// GEMM declines, folded four outputs per pass) and write-backs scaled by a
// float literal (average pooling). Each must be bit-identical to the
// interpreter oracle on special-laden data, and each near miss — a shape
// the executor must not take, or a plan it must decline — must stay exact
// on the path it falls to.

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/topi"
)

// gemvNest builds a dense nest by hand: per output j, T = 0, T += x[k] ·
// wt[j,k] over k = kvec·ko + ki, out[j] = act(T + bias[j]); wFirst writes
// the product as wt·x. It returns the kernel and its arguments in binding
// order, output last.
func gemvNest(m, n, kvec int, wFirst, relu bool) (*ir.Kernel, []*ir.Buffer) {
	x := ir.NewBuffer("x", ir.Global, n)
	wt := ir.NewBuffer("wt", ir.Global, m, n)
	ko, ki := ir.V("ko"), ir.V("ki")
	k := ir.AddE(ir.MulE(ko, ir.CInt(int64(kvec))), ki)
	return gemvKernel(m, x, []ir.Expr{k}, wt, []ir.Expr{k}, []*ir.Var{ko, ki}, []int{n / kvec, kvec}, wFirst, relu)
}

// convGemvNest builds a convolution with one output pixel, a GEMV over
// T += in[c,fy,fx] · wt[j,c,fy,fx]: in is C×(F+1)×F and the window never
// reads its last row, so the input's taps are not contiguous and the
// four-point plan declines it. The GEMM's image-source check accepts the layout
// and declines the one output column.
func convGemvNest(m, c, f int, wFirst, relu bool) (*ir.Kernel, []*ir.Buffer) {
	in := ir.NewBuffer("in", ir.Global, c, f+1, f)
	wt := ir.NewBuffer("wt", ir.Global, m, c, f, f)
	cc, fy, fx := ir.V("c"), ir.V("fy"), ir.V("fx")
	return gemvKernel(m, in, []ir.Expr{cc, fy, fx}, wt, []ir.Expr{cc, fy, fx},
		[]*ir.Var{cc, fy, fx}, []int{c, f, f}, wFirst, relu)
}

// gemvKernel assembles a GEMV over the reduction loops vars: per output j,
// T = 0, T += x[xIdx] · wt[j, wIdx…], out[j] = act(T + bias[j]).
func gemvKernel(m int, x *ir.Buffer, xIdx []ir.Expr, wt *ir.Buffer, wIdx []ir.Expr, vars []*ir.Var, exts []int,
	wFirst, relu bool) (*ir.Kernel, []*ir.Buffer) {
	bias := ir.NewBuffer("bias", ir.Global, m)
	out := ir.NewBuffer("out", ir.Global, m)
	dot := ir.NewBuffer("dot", ir.Private, 1)
	z := []ir.Expr{ir.CInt(0)}
	j := ir.V("j")
	lx := &ir.Load{Buf: x, Index: xIdx}
	lw := &ir.Load{Buf: wt, Index: append([]ir.Expr{j}, wIdx...)}
	prod := ir.MulE(lx, lw)
	if wFirst {
		prod = ir.MulE(lw, lx)
	}
	wv := ir.Expr(ir.AddE(&ir.Load{Buf: dot, Index: z}, &ir.Load{Buf: bias, Index: []ir.Expr{j}}))
	if relu {
		wv = ir.MaxE(wv, ir.CFloat(0))
	}
	red := ir.Stmt(&ir.Store{Buf: dot, Index: z, Value: ir.AddE(&ir.Load{Buf: dot, Index: z}, prod)})
	for i := len(vars) - 1; i >= 0; i-- {
		red = ir.Loop(vars[i], exts[i], red)
	}
	body := ir.Loop(j, m, ir.Seq(
		&ir.Store{Buf: dot, Index: z, Value: ir.CFloat(0)},
		red,
		&ir.Store{Buf: out, Index: []ir.Expr{j}, Value: wv},
	))
	args := []*ir.Buffer{x, wt, bias, out}
	return &ir.Kernel{Name: "gemv", Args: args, Body: ir.Seq(&ir.Alloc{Buf: dot}, body)}, args
}

// runFolds runs a case on the vector tier and returns its output, its stats
// and the window runs each fold took.
func runFolds(t *testing.T, wc *windowCase) ([]float32, sim.StatsSnapshot, [3]int64) {
	t.Helper()
	runs, stop := sim.CountLaneRuns()
	got, st := wc.run(t, sim.TierVector)
	stop()
	return got, st, [3]int64{runs.Merged.Load(), runs.Multi.Load(), runs.Scalar.Load()}
}

// TestWindowGemvBitIdenticalToInterp is the four-point fold's property:
// topi's constant and symbolic dense kernels and hand-built GEMVs at every
// output count 1–9 and 120 (row remainders 0–3) and strips of 1, 4 and 8,
// with the product in either operand order, bias and ReLU, all
// bit-identical to the interpreter, every entry one window run of the GEMM
// loop it compiled to, on the four-point fold from four outputs on and on
// the per-point fold below. One-pixel convolutions at F = 1, 2, 3 (input
// taps with gaps) are the near miss: the same GEMV shape, exact on the
// per-point fold at every output count.
func TestWindowGemvBitIdenticalToInterp(t *testing.T) {
	const n, c = 24, 3
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 120} {
		var cases []*windowCase
		gapped := map[*windowCase]bool{}
		for _, wFirst := range []bool{false, true} {
			for _, kvec := range []int{1, 4, 8} {
				relu := kvec == 4
				kern, args := gemvNest(m, n, kvec, wFirst, relu)
				cases = append(cases, &windowCase{name: fmt.Sprintf("gemv_m%d_k%d_wfirst%v_relu%v", m, kvec, wFirst, relu),
					kern: kern, args: args[:3], lens: []int{n, m * n, m}, out: args[3], outLen: m})
			}
			for _, f := range []int{1, 2, 3} {
				relu := f == 2
				kern, args := convGemvNest(m, c, f, wFirst, relu)
				cases = append(cases, &windowCase{name: fmt.Sprintf("convgemv_m%d_f%d_wfirst%v_relu%v", m, f, wFirst, relu),
					kern: kern, args: args[:3], lens: []int{c * (f + 1) * f, m * c * f * f, m}, out: args[3], outLen: m})
				gapped[cases[len(cases)-1]] = true
			}
		}
		op, err := topi.Dense(topi.DenseSpec{Name: "fc", N: n, M: m, Relu: true, Bias: true}, false, 8, topi.ConvIO{})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, &windowCase{name: fmt.Sprintf("dense_m%d", m), kern: op.Kernel,
			args: []*ir.Buffer{op.In, op.Weights, op.Bias}, lens: []int{n, m * n, m}, out: op.Out, outLen: m})
		pd, err := topi.DenseParam("fcp", 4, true, true, false)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := pd.Bind(n, m)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, &windowCase{name: fmt.Sprintf("denseparam_m%d", m), kern: pd.Op.Kernel, scalars: sc,
			args: []*ir.Buffer{pd.Op.In, pd.Op.Weights, pd.Op.Bias}, lens: []int{n, m * n, m}, out: pd.Op.Out, outLen: m})
		for _, wc := range cases {
			wc.special = addSpecials
			want, _ := wc.run(t, sim.TierInterp)
			got, st, folds := runFolds(t, wc)
			assertBitEqual(t, wc.name, got, want)
			if st.GemmLoops != 1 || st.WindowRuns != 1 || st.GemmRuns != 0 || st.VectorRuns != 0 || st.GemmBailouts != 0 {
				t.Fatalf("%s: gemm_loops %d, window/gemm/vector runs %d/%d/%d, gemm_bailouts %d (want 1, 1/0/0, 0)",
					wc.name, st.GemmLoops, st.WindowRuns, st.GemmRuns, st.VectorRuns, st.GemmBailouts)
			}
			want4 := [3]int64{0, 0, 1}
			if m >= 4 && !gapped[wc] {
				want4 = [3]int64{0, 1, 0}
			}
			if folds != want4 {
				t.Fatalf("%s: merged/four-point/per-point folds %v, want %v", wc.name, folds, want4)
			}
		}
	}
}

// TestWindowGemvAliasedOutputIsExact: a GEMV whose output is bound inside the
// reach of its input or of its weights. Later outputs then read earlier
// ones, so the four-point plan, which folds three points ahead of their
// write-backs, must decline for the per-point fold, and the result must
// still be the interpreter's. An output past everything the nest reads keeps
// the four-point fold.
func TestWindowGemvAliasedOutputIsExact(t *testing.T) {
	const m, n, kvec = 10, 16, 4
	kern, args := gemvNest(m, n, kvec, false, true)
	x, wt, bias, out := args[0], args[1], args[2], args[3]
	for _, c := range []struct {
		name     string
		into     *ir.Buffer // the operand whose backing holds the output
		shift    int
		wantFold int // 1: four-point, 2: per-point
	}{
		{"in_input", x, 3, 2},
		{"in_weights", wt, 5 * n, 2},
		{"past_weights", wt, m * n, 1},
	} {
		run := func(tier sim.Tier) ([]float32, sim.StatsSnapshot, [3]int64) {
			binds := map[*ir.Buffer][]float32{x: windowInput(1, n, addSpecials),
				wt: windowInput(2, m*n, addSpecials), bias: windowInput(3, m, addSpecials)}
			host := binds[c.into]
			backing := append(host, make([]float32, max(0, c.shift+m-len(host)))...)
			binds[c.into] = backing[:len(host)]
			binds[out] = backing[c.shift : c.shift+m]
			runs, stop := sim.CountLaneRuns()
			err, st := runKernelTier(t, kern, tier, binds, nil)
			stop()
			if err != nil {
				t.Fatal(err)
			}
			return backing, st, [3]int64{runs.Merged.Load(), runs.Multi.Load(), runs.Scalar.Load()}
		}
		want, _, _ := run(sim.TierInterp)
		got, st, folds := run(sim.TierVector)
		assertBitEqual(t, c.name, got, want)
		if st.WindowRuns != 1 || st.GemmBailouts != 0 || folds[c.wantFold] != 1 {
			t.Errorf("%s: window_runs %d, gemm_bailouts %d, merged/four-point/per-point folds %v (want 1, 0, fold %d)",
				c.name, st.WindowRuns, st.GemmBailouts, folds, c.wantFold)
		}
	}
}

// scaledNest builds a c×h2×w2 sum pool over F×F windows whose write-back is
// one of the forms below, with aux a c-vector (bias) or a c×h2×w2 tensor
// (a loop-variant load), and sc a one-element buffer. The literal is 1/F²,
// which is not exact in binary, so its rounding shows.
//
//	Tc       out = T·(1/F²)             matched
//	Tc+b     out = T·(1/F²) + aux[c]    matched
//	relu     out = max(T·(1/F²) + aux[c], 0)  matched
//	(T+b)c   out = (T + aux[c])·(1/F²)  not matched: the scale is outside the chain
//	Tload    out = T·aux[c,y,x]         not matched: a loop-variant scale
//	Tinv     out = T·sc[0]              not matched: an invariant scale that is no literal
func scaledNest(form string, c, h, w, f, s int) (*ir.Kernel, []*ir.Buffer, []int) {
	h2, w2 := (h-f)/s+1, (w-f)/s+1
	in := ir.NewBuffer("in", ir.Global, c, h, w)
	out := ir.NewBuffer("out", ir.Global, c, h2, w2)
	acc := ir.NewBuffer("acc", ir.Private, 1)
	z := []ir.Expr{ir.CInt(0)}
	cc, y, x, fy, fx := ir.V("c"), ir.V("y"), ir.V("x"), ir.V("fy"), ir.V("fx")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	ld := &ir.Load{Buf: in, Index: []ir.Expr{cc, ir.AddE(ir.MulE(cs(s), y), fy), ir.AddE(ir.MulE(cs(s), x), fx)}}
	T := &ir.Load{Buf: acc, Index: z}
	lit := ir.CFloat(1 / float64(f*f))
	args, lens := []*ir.Buffer{in}, []int{c * h * w}
	aux := func(shape ...int) *ir.Load {
		b := ir.NewBuffer("aux", ir.Global, shape...)
		n := 1
		for _, d := range shape {
			n *= d
		}
		args, lens = append(args, b), append(lens, n)
		if len(shape) == 1 {
			if shape[0] == 1 {
				return &ir.Load{Buf: b, Index: z}
			}
			return &ir.Load{Buf: b, Index: []ir.Expr{cc}}
		}
		return &ir.Load{Buf: b, Index: []ir.Expr{cc, y, x}}
	}
	var wv ir.Expr
	switch form {
	case "Tc":
		wv = ir.MulE(T, lit)
	case "Tc+b":
		wv = ir.AddE(ir.MulE(T, lit), aux(c))
	case "relu":
		wv = ir.MaxE(ir.AddE(ir.MulE(T, lit), aux(c)), ir.CFloat(0))
	case "(T+b)c":
		wv = ir.MulE(ir.AddE(T, aux(c)), lit)
	case "Tload":
		wv = ir.MulE(T, aux(c, h2, w2))
	case "Tinv":
		wv = ir.MulE(T, aux(1))
	}
	body := ir.Loop(cc, c, ir.Loop(y, h2, ir.Loop(x, w2, ir.Seq(
		&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(0)},
		ir.Loop(fy, f, ir.Loop(fx, f, &ir.Store{Buf: acc, Index: z, Value: ir.AddE(T, ld)})),
		&ir.Store{Buf: out, Index: []ir.Expr{cc, y, x}, Value: wv},
	))))
	args = append(args, out)
	return &ir.Kernel{Name: "scaled", Args: args, Body: ir.Seq(&ir.Alloc{Buf: acc}, body)}, args, lens
}

// TestWindowScaledWriteBackIsExact: every scaled write-back form at several
// window sizes and strides, with the lane fold forced off and on, is
// bit-identical to the interpreter. The matched forms run as one window
// run, on a merged lane run where the CPU has lanes (the scale applied to
// the folded row before the vector write-back) and on the per-point fold
// without; the near misses match no tile nest and run on the closures, with
// no window run, no bailout and their one innermost tap loop counted as a
// fallback.
func TestWindowScaledWriteBackIsExact(t *testing.T) {
	const c = 3
	for _, form := range []string{"Tc", "Tc+b", "relu", "(T+b)c", "Tload", "Tinv"} {
		matched := form == "Tc" || form == "Tc+b" || form == "relu"
		for _, f := range []int{2, 3, 7} {
			for _, s := range []int{1, 2} {
				h, w := f+s, 9*s+f // two output rows of ten
				kern, args, lens := scaledNest(form, c, h, w, f, s)
				h2, w2 := (h-f)/s+1, (w-f)/s+1
				wc := &windowCase{name: fmt.Sprintf("%s_f%d_s%d", form, f, s), kern: kern, args: args[:len(args)-1],
					lens: lens, out: args[len(args)-1], outLen: c * h2 * w2, special: addSpecials}
				want, _ := wc.run(t, sim.TierInterp)
				for _, lanes := range []bool{false, true} {
					restore := sim.SetLanes(lanes)
					got, st, folds := runFolds(t, wc)
					restore()
					tag := fmt.Sprintf("%s lanes %v", wc.name, lanes)
					assertBitEqual(t, tag, got, want)
					if st.GemmBailouts != 0 || st.GuardBailouts != 0 || st.VectorRuns != 0 {
						t.Fatalf("%s: gemm_bailouts %d, guard_bailouts %d, vector_runs %d (want 0)",
							tag, st.GemmBailouts, st.GuardBailouts, st.VectorRuns)
					}
					if !matched {
						if st.WindowLoops != 0 || st.WindowRuns != 0 || st.FallbackLoops != 1 {
							t.Fatalf("%s: window %d/%d, fallback_loops %d (want 0/0, 1)",
								tag, st.WindowLoops, st.WindowRuns, st.FallbackLoops)
						}
						continue
					}
					if st.FallbackLoops != 0 {
						t.Fatalf("%s: fallback_loops %d, want 0", tag, st.FallbackLoops)
					}
					if st.WindowLoops != 1 || st.WindowRuns != 1 {
						t.Fatalf("%s: window %d/%d, want 1/1", tag, st.WindowLoops, st.WindowRuns)
					}
					wantFolds := [3]int64{0, 0, 1}
					if lanes && sim.CPUHasLanes {
						wantFolds = [3]int64{1, 0, 0}
					}
					if folds != wantFolds {
						t.Fatalf("%s: merged/four-point/per-point folds %v, want %v", tag, folds, wantFolds)
					}
				}
			}
		}
	}
}
