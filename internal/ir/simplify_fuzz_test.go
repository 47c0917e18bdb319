package ir_test

// Differential fuzzing for the simplifier: a random affine-ish index
// expression is wrapped into a tiny kernel twice — once raw, once through
// SimplifyStmt — and both versions must store bit-identical results under
// the interpreter oracle AND the vector tier. This catches algebraic
// rewrites that hold over the integers but not over the IR's evaluation
// rules (division, modulo, bounds) as well as simplifications that change
// which element a store lands on.
//
// Runs as a seed-corpus test under plain `go test` and as a fuzz target
// under `go test -fuzz=FuzzSimplifyDifferential ./internal/ir/`.

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
)

// buildIndexExpr derives a deterministic expression over loop vars i, j and
// scalar param p from the fuzz bytes. The grammar includes non-affine
// operators (div/mod/min/max) on purpose: the simplifier must be sound on
// everything it might meet, not just on what the affine pass accepts.
func buildIndexExpr(data []byte, i, j, p *ir.Var) ir.Expr {
	e := ir.Expr(i)
	for n, b := range data {
		if n >= 12 {
			break
		}
		c := ir.CInt(int64(b%7) - 3)
		switch b % 11 {
		case 0:
			e = ir.AddE(e, c)
		case 1:
			e = ir.SubE(e, c)
		case 2:
			e = ir.MulE(e, ir.CInt(int64(b%3)+1))
		case 3:
			e = ir.AddE(e, j)
		case 4:
			e = ir.SubE(e, ir.MulE(j, c))
		case 5:
			e = ir.AddE(e, p)
		case 6:
			e = ir.AddE(ir.CInt(0), e) // identity fodder for the folder
		case 7:
			e = ir.MulE(e, ir.CInt(1))
		case 8:
			e = ir.MaxE(e, ir.SubE(e, c))
		case 9:
			e = ir.MinE(e, ir.AddE(e, ir.CInt(int64(b%5))))
		case 10:
			e = ir.AddE(e, ir.ModE(ir.AddE(j, ir.CInt(16)), ir.CInt(5)))
		}
	}
	return e
}

// wrapIndex clamps an arbitrary integer expression into [0, n) without
// division on negatives: ((e mod n) + n) mod n.
func wrapIndex(e ir.Expr, n int64) ir.Expr {
	return ir.ModE(ir.AddE(ir.ModE(e, ir.CInt(n)), ir.CInt(n)), ir.CInt(n))
}

func runSimplifyCase(t *testing.T, data []byte) {
	t.Helper()
	const bufN = 32
	i, j := ir.V("i"), ir.V("j")
	p := ir.Param("p")
	raw := buildIndexExpr(data, i, j, p)
	loadIdx := wrapIndex(ir.AddE(raw, j), bufN)
	storeIdx := wrapIndex(raw, bufN)

	build := func(simplify bool) (*ir.Kernel, *ir.Buffer, *ir.Buffer) {
		src := ir.NewBuffer("src", ir.Global, bufN)
		dst := ir.NewBuffer("dst", ir.Global, bufN)
		body := ir.Stmt(ir.Loop(i, 6, ir.Loop(j, 5,
			&ir.Store{Buf: dst, Index: []ir.Expr{storeIdx},
				Value: ir.AddE(&ir.Load{Buf: dst, Index: []ir.Expr{storeIdx}},
					&ir.Load{Buf: src, Index: []ir.Expr{loadIdx}})})))
		if simplify {
			body = ir.SimplifyStmt(body)
		}
		return &ir.Kernel{Name: "fz", Args: []*ir.Buffer{src, dst}, ScalarArgs: []*ir.Var{p}, Body: body}, src, dst
	}

	var ref []float32
	for _, simplified := range []bool{false, true} {
		kern, src, dst := build(simplified)
		if err := kern.Validate(); err != nil {
			t.Fatalf("simplified=%v: %v", simplified, err)
		}
		for _, tier := range []sim.Tier{sim.TierInterp, sim.TierVector} {
			m := sim.NewMachine()
			m.SetTier(tier)
			srcData := make([]float32, bufN)
			for x := range srcData {
				srcData[x] = float32(x)*0.75 + 1
			}
			out := make([]float32, bufN)
			m.Bind(src, srcData)
			m.Bind(dst, out)
			if err := m.Run(kern, map[*ir.Var]int64{p: 3}); err != nil {
				t.Fatalf("simplified=%v tier=%s: %v", simplified, tier, err)
			}
			if ref == nil {
				ref = out
				continue
			}
			for x := range ref {
				if out[x] != ref[x] {
					t.Fatalf("simplified=%v tier=%s: elem %d: %v != %v\nraw index: %s\nsimplified: %s",
						simplified, tier, x, out[x], ref[x], storeIdx, ir.Simplify(storeIdx))
				}
			}
		}
	}
}

func FuzzSimplifyDifferential(f *testing.F) {
	f.Add([]byte{0, 3, 2, 4})
	f.Add([]byte{6, 7, 6, 7, 6, 7})
	f.Add([]byte{8, 9, 10, 1, 5})
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{10, 10, 10, 3, 4, 5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		runSimplifyCase(t, data)
	})
}

// TestSimplifyDifferentialSweep gives deterministic coverage without the
// fuzz engine: every 4-byte opcode window over a small alphabet.
func TestSimplifyDifferentialSweep(t *testing.T) {
	for a := byte(0); a < 11; a++ {
		for b := byte(0); b < 11; b += 2 {
			runSimplifyCase(t, []byte{a, b, byte(a + b), 5, a ^ b})
		}
	}
}
