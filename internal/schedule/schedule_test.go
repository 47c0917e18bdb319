package schedule

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/sim"
)

// matvec builds the Listing 4.3 kernel: c[i] = sum_k x[k]*Y[i][k], M×N.
func matvec(m, n int) (*ir.Kernel, *ir.Buffer, *ir.Buffer, *ir.Buffer, *ir.Var, *ir.Var) {
	x := ir.NewBuffer("x", ir.Global, n)
	y := ir.NewBuffer("Y", ir.Global, m, n)
	c := ir.NewBuffer("c", ir.Global, m)
	acc := ir.NewBuffer("sum", ir.Private, 1)
	i, k := ir.V("i"), ir.V("k")
	z := []ir.Expr{ir.CInt(0)}
	body := ir.Seq(
		&ir.Alloc{Buf: acc},
		ir.Loop(i, m, ir.Seq(
			&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(0)},
			ir.Loop(k, n, &ir.Store{Buf: acc, Index: z,
				Value: ir.AddE(&ir.Load{Buf: acc, Index: z},
					ir.MulE(&ir.Load{Buf: x, Index: []ir.Expr{k}}, &ir.Load{Buf: y, Index: []ir.Expr{i, k}}))}),
			&ir.Store{Buf: c, Index: []ir.Expr{i}, Value: &ir.Load{Buf: acc, Index: z}},
		)),
	)
	return &ir.Kernel{Name: "matvec", Args: []*ir.Buffer{x, y, c}, Body: body}, x, y, c, i, k
}

func runMatvec(t *testing.T, k *ir.Kernel, x, y, c *ir.Buffer, m, n int) []float32 {
	t.Helper()
	mach := sim.NewMachine()
	xd := make([]float32, n)
	yd := make([]float32, m*n)
	for i := range xd {
		xd[i] = float32(i%7) - 3
	}
	for i := range yd {
		yd[i] = float32(i%5) - 2
	}
	mach.Bind(x, xd)
	mach.Bind(y, yd)
	mach.Bind(c, make([]float32, m))
	if err := mach.Run(k, nil); err != nil {
		t.Fatal(err)
	}
	return mach.Buffer(c)
}

func TestSplitPreservesSemantics(t *testing.T) {
	k, x, y, c, _, kv := matvec(8, 12)
	ref := append([]float32(nil), runMatvec(t, k, x, y, c, 8, 12)...)

	body, ko, ki, err := split(k.Body, kv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ko == nil || ki == nil {
		t.Fatal("split returned nil vars")
	}
	k2 := &ir.Kernel{Name: "matvec_s", Args: k.Args, Body: body}
	if err := k2.Validate(); err != nil {
		t.Fatal(err)
	}
	got := runMatvec(t, k2, x, y, c, 8, 12)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("split changed result at %d: %v vs %v", i, ref[i], got[i])
		}
	}
	// Structure: the k loop is gone, ko and ki exist with extents 3 and 4.
	d := ir.Dump(body)
	if !strings.Contains(d, "for ko in [0,3)") || !strings.Contains(d, "for ki in [0,4)") {
		t.Fatalf("split structure wrong:\n%s", d)
	}
}

func TestSplitRejectsNonDivisible(t *testing.T) {
	k, _, _, _, _, kv := matvec(8, 12)
	if _, _, _, err := split(k.Body, kv, 5); err == nil || !strings.Contains(err.Error(), "divisible") {
		t.Fatalf("want divisibility error, got %v", err)
	}
}

func TestSplitRejectsSymbolic(t *testing.T) {
	n := ir.Param("n")
	out := ir.NewBufferE("out", ir.Global, n)
	i := ir.V("i")
	body := ir.LoopE(i, n, &ir.Store{Buf: out, Index: []ir.Expr{i}, Value: ir.CFloat(0)})
	if _, _, _, err := split(body, i, 4); err == nil || !strings.Contains(err.Error(), "not constant") {
		t.Fatalf("want symbolic error, got %v", err)
	}
}

func TestSplitMissingLoop(t *testing.T) {
	k, _, _, _, _, _ := matvec(4, 4)
	if _, _, _, err := split(k.Body, ir.V("ghost"), 2); err == nil {
		t.Fatal("want missing-loop error")
	}
}

func TestUnrollFullAnnotates(t *testing.T) {
	k, _, _, _, _, kv := matvec(8, 12)
	body, err := unroll(k.Body, kv, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ir.Dump(body), "for k in [0,12) #unroll") {
		t.Fatalf("unroll annotation missing:\n%s", ir.Dump(body))
	}
}

func TestUnrollPartialSplitsThenUnrolls(t *testing.T) {
	k, x, y, c, _, kv := matvec(8, 12)
	ref := append([]float32(nil), runMatvec(t, k, x, y, c, 8, 12)...)
	body, err := unroll(k.Body, kv, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := ir.Dump(body)
	if !strings.Contains(d, "for ki in [0,4) #unroll") {
		t.Fatalf("partial unroll structure wrong:\n%s", d)
	}
	got := runMatvec(t, &ir.Kernel{Name: "u", Args: k.Args, Body: body}, x, y, c, 8, 12)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatal("partial unroll changed semantics")
		}
	}
}

func TestUnrollRejectsSymbolicFull(t *testing.T) {
	n := ir.Param("n")
	out := ir.NewBufferE("out", ir.Global, n)
	i := ir.V("i")
	body := ir.LoopE(i, n, &ir.Store{Buf: out, Index: []ir.Expr{i}, Value: ir.CFloat(0)})
	if _, err := unroll(body, i, -1); err == nil {
		t.Fatal("AOC cannot fully unroll non-constant loops; must error")
	}
}

func TestTile(t *testing.T) {
	out := ir.NewBuffer("out", ir.Global, 8, 16)
	i, j := ir.V("i"), ir.V("j")
	body := ir.Loop(i, 8, ir.Loop(j, 16, &ir.Store{Buf: out, Index: []ir.Expr{i, j}, Value: ir.CFloat(1)}))
	// Tiling is two splits (§4.2).
	b1, io, ii, err := split(body, i, 2)
	if err != nil {
		t.Fatal(err)
	}
	b2, jo, ji, err := split(b1, j, 4)
	if err != nil {
		t.Fatal(err)
	}
	mach := sim.NewMachine()
	mach.Bind(out, make([]float32, 8*16))
	if err := mach.Run(&ir.Kernel{Name: "t", Args: []*ir.Buffer{out}, Body: b2}, nil); err != nil {
		t.Fatal(err)
	}
	for idx, v := range mach.Buffer(out) {
		if v != 1 {
			t.Fatalf("element %d not covered after tile", idx)
		}
	}
	// Each dimension splits in place: io, ii, jo, ji from the outside in.
	d := ir.Dump(b2)
	at := -1
	for _, v := range []*ir.Var{io, ii, jo, ji} {
		k := strings.Index(d, "for "+v.Name)
		if k <= at {
			t.Fatalf("tile loop order wrong at %s:\n%s", v.Name, d)
		}
		at = k
	}
}

func TestHoistInvariant(t *testing.T) {
	// Listing 4.8 shape: per-iteration recomputation of a max.
	a := ir.NewBuffer("a", ir.Global, 16)
	b := ir.NewBuffer("b", ir.Global, 16)
	amax := ir.NewBuffer("a_max", ir.Private, 1)
	i, j := ir.V("i"), ir.V("j")
	z := []ir.Expr{ir.CInt(0)}
	inner := ir.Seq(
		&ir.Store{Buf: amax, Index: z, Value: ir.CFloat(-9.9e37)},
		ir.Loop(j, 16, &ir.Store{Buf: amax, Index: z,
			Value: ir.MaxE(&ir.Load{Buf: amax, Index: z}, &ir.Load{Buf: a, Index: []ir.Expr{j}})}),
		&ir.Store{Buf: b, Index: []ir.Expr{i},
			Value: ir.DivE(&ir.Load{Buf: a, Index: []ir.Expr{i}}, &ir.Load{Buf: amax, Index: z})},
	)
	body := ir.Seq(&ir.Alloc{Buf: amax}, ir.Loop(i, 16, inner))
	k := &ir.Kernel{Name: "norm", Args: []*ir.Buffer{a, b}, Body: body}

	mach := sim.NewMachine()
	ad := make([]float32, 16)
	for x := range ad {
		ad[x] = float32(x + 1)
	}
	mach.Bind(a, ad)
	mach.Bind(b, make([]float32, 16))
	if err := mach.Run(k, nil); err != nil {
		t.Fatal(err)
	}
	ref := append([]float32(nil), mach.Buffer(b)...)

	hoisted, err := HoistInvariant(body, i)
	if err != nil {
		t.Fatal(err)
	}
	// The j loop must now appear before the i loop.
	d := ir.Dump(hoisted)
	if strings.Index(d, "for j") > strings.Index(d, "for i in") {
		t.Fatalf("licm did not hoist:\n%s", d)
	}
	mach2 := sim.NewMachine()
	mach2.Bind(a, ad)
	mach2.Bind(b, make([]float32, 16))
	if err := mach2.Run(&ir.Kernel{Name: "norm2", Args: k.Args, Body: hoisted}, nil); err != nil {
		t.Fatal(err)
	}
	for x := range ref {
		if ref[x] != mach2.Buffer(b)[x] {
			t.Fatalf("licm changed semantics at %d", x)
		}
	}
}

func TestHoistRejectsVariantLead(t *testing.T) {
	a := ir.NewBuffer("a", ir.Global, 4)
	i := ir.V("i")
	body := ir.Loop(i, 4, ir.Seq(
		&ir.Store{Buf: a, Index: []ir.Expr{i}, Value: ir.CFloat(1)},
	))
	if _, err := HoistInvariant(body, i); err == nil {
		t.Fatal("want no-invariant error")
	}
}

// Property: Split by any valid divisor preserves matvec results.
func TestQuickSplitDivisors(t *testing.T) {
	f := func(sel uint8) bool {
		divisors := []int{1, 2, 3, 4, 6, 12}
		d := divisors[int(sel)%len(divisors)]
		k, x, y, c, _, kv := matvec(4, 12)
		mach := sim.NewMachine()
		xd, yd := make([]float32, 12), make([]float32, 48)
		for i := range xd {
			xd[i] = float32(i) - 5
		}
		for i := range yd {
			yd[i] = float32(i%9) - 4
		}
		mach.Bind(x, xd)
		mach.Bind(y, yd)
		mach.Bind(c, make([]float32, 4))
		if err := mach.Run(k, nil); err != nil {
			return false
		}
		ref := append([]float32(nil), mach.Buffer(c)...)

		body, _, _, err := split(k.Body, kv, d)
		if err != nil {
			return false
		}
		mach2 := sim.NewMachine()
		mach2.Bind(x, xd)
		mach2.Bind(y, yd)
		mach2.Bind(c, make([]float32, 4))
		if err := mach2.Run(&ir.Kernel{Name: "q", Args: k.Args, Body: body}, nil); err != nil {
			return false
		}
		for i := range ref {
			if ref[i] != mach2.Buffer(c)[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUnrollByName(t *testing.T) {
	k, _, _, _, _, _ := matvec(8, 12)
	body, err := UnrollByName(k.Body, "k", -1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ir.Dump(body), "#unroll") {
		t.Fatal("UnrollByName did not annotate")
	}
	if _, err := UnrollByName(k.Body, "nosuch", -1); err == nil {
		t.Fatal("missing loop name must error")
	}
	if v := findLoopVar(k.Body, "i"); v == nil || v.Name != "i" {
		t.Fatal("findLoopVar failed")
	}
	if findLoopVar(k.Body, "zz") != nil {
		t.Fatal("findLoopVar must return nil for unknown names")
	}
}
