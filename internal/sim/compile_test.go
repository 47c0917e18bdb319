package sim

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

// The compiled executor must be indistinguishable from the tree-walking
// interpreter: same values, same faults.

func TestCompiledMatchesInterpreterOnMatvec(t *testing.T) {
	mm, nn := 6, 20
	x := ir.NewBuffer("x", ir.Global, nn)
	y := ir.NewBuffer("Y", ir.Global, mm, nn)
	out := ir.NewBuffer("c", ir.Global, mm)
	acc := ir.NewBuffer("acc", ir.Private, 1)
	i, k := ir.V("i"), ir.V("k")
	z := []ir.Expr{ir.CInt(0)}
	kern := &ir.Kernel{Name: "mv", Args: []*ir.Buffer{x, y, out},
		Body: ir.Seq(&ir.Alloc{Buf: acc},
			ir.Loop(i, mm, ir.Seq(
				&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(0)},
				ir.Loop(k, nn, &ir.Store{Buf: acc, Index: z,
					Value: ir.AddE(&ir.Load{Buf: acc, Index: z},
						ir.MulE(&ir.Load{Buf: x, Index: []ir.Expr{k}}, &ir.Load{Buf: y, Index: []ir.Expr{i, k}}))}),
				&ir.Store{Buf: out, Index: []ir.Expr{i}, Value: &ir.Load{Buf: acc, Index: z}},
			)))}

	f := func(seed uint64) bool {
		xd := make([]float32, nn)
		yd := make([]float32, mm*nn)
		for j := range xd {
			xd[j] = float32((int(seed)+j)%11) - 5
		}
		for j := range yd {
			yd[j] = float32((int(seed)*3+j)%7) - 3
		}
		run := func(interp bool) []float32 {
			m := NewMachine()
			m.Bind(x, xd)
			m.Bind(y, yd)
			od := make([]float32, mm)
			m.Bind(out, od)
			var err error
			if interp {
				err = m.runInterp(kern, nil)
			} else {
				err = m.Run(kern, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			return od
		}
		a, b := run(true), run(false)
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledFaultsMatchInterpreter(t *testing.T) {
	// Out-of-bounds: both paths must report the same fault.
	a := ir.NewBuffer("a", ir.Global, 4)
	i := ir.V("i")
	k := &ir.Kernel{Name: "oob", Args: []*ir.Buffer{a},
		Body: ir.Loop(i, 8, &ir.Store{Buf: a, Index: []ir.Expr{i}, Value: ir.CFloat(0)})}
	m1 := NewMachine()
	m1.Bind(a, make([]float32, 8))
	e1 := m1.Run(k, nil)
	m2 := NewMachine()
	m2.Bind(a, make([]float32, 8))
	e2 := m2.runInterp(k, nil)
	if e1 == nil || e2 == nil {
		t.Fatal("both paths must fault")
	}
	if e1.Error() != e2.Error() {
		t.Fatalf("fault messages differ:\n  compiled: %v\n  interp:   %v", e1, e2)
	}

	// Channel underflow.
	c := &ir.Channel{Name: "c"}
	d := ir.NewBuffer("d", ir.Global, 1)
	kc := &ir.Kernel{Name: "under", Args: []*ir.Buffer{d},
		Body: &ir.Store{Buf: d, Index: []ir.Expr{ir.CInt(0)}, Value: &ir.ChannelRead{Ch: c}}}
	m3 := NewMachine()
	m3.Bind(d, make([]float32, 1))
	if err := m3.Run(kc, nil); err == nil || !strings.Contains(err.Error(), "empty channel") {
		t.Fatalf("compiled underflow fault wrong: %v", err)
	}
}

func TestCompiledSymbolicShapes(t *testing.T) {
	n := ir.Param("n")
	in := ir.NewBufferE("in", ir.Global, n)
	out := ir.NewBufferE("out", ir.Global, n)
	i := ir.V("i")
	k := &ir.Kernel{Name: "scale", Args: []*ir.Buffer{in, out}, ScalarArgs: []*ir.Var{n},
		Body: ir.LoopE(i, n, &ir.Store{Buf: out, Index: []ir.Expr{i},
			Value: ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{i}}, ir.CFloat(3))})}
	m := NewMachine()
	ind := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	m.Bind(in, ind)
	od := make([]float32, 8)
	m.Bind(out, od)
	if err := m.Run(k, map[*ir.Var]int64{n: 6}); err != nil {
		t.Fatal(err)
	}
	if od[5] != 18 || od[6] != 0 {
		t.Fatalf("symbolic compiled run wrong: %v", od)
	}
}

func TestCompiledChannelsRoundTrip(t *testing.T) {
	ch := &ir.Channel{Name: "c", Depth: 8}
	a := ir.NewBuffer("a", ir.Global, 8)
	b := ir.NewBuffer("b", ir.Global, 8)
	i, j := ir.V("i"), ir.V("j")
	prod := &ir.Kernel{Name: "p", Args: []*ir.Buffer{a},
		Body: ir.Loop(i, 8, &ir.ChannelWrite{Ch: ch, Value: &ir.Load{Buf: a, Index: []ir.Expr{i}}})}
	cons := &ir.Kernel{Name: "q", Args: []*ir.Buffer{b},
		Body: ir.Loop(j, 8, &ir.Store{Buf: b, Index: []ir.Expr{j}, Value: &ir.ChannelRead{Ch: ch}})}
	m := NewMachine()
	ad := []float32{9, 8, 7, 6, 5, 4, 3, 2}
	m.Bind(a, ad)
	m.Bind(b, make([]float32, 8))
	if err := m.RunGraph([]*ir.Kernel{prod, cons}, nil); err != nil {
		t.Fatal(err)
	}
	for idx, v := range m.Buffer(b) {
		if v != ad[idx] {
			t.Fatalf("channel round trip wrong at %d", idx)
		}
	}
}

// BenchmarkCompiledVsInterp documents the speedup of closure compilation on
// a conv-like workload.
func BenchmarkCompiledVsInterp(b *testing.B) {
	nn := 64
	x := ir.NewBuffer("x", ir.Global, nn)
	y := ir.NewBuffer("Y", ir.Global, nn, nn)
	out := ir.NewBuffer("c", ir.Global, nn)
	acc := ir.NewBuffer("acc", ir.Private, 1)
	i, k := ir.V("i"), ir.V("k")
	z := []ir.Expr{ir.CInt(0)}
	kern := &ir.Kernel{Name: "mv", Args: []*ir.Buffer{x, y, out},
		Body: ir.Seq(&ir.Alloc{Buf: acc},
			ir.Loop(i, nn, ir.Seq(
				&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(0)},
				ir.Loop(k, nn, &ir.Store{Buf: acc, Index: z,
					Value: ir.AddE(&ir.Load{Buf: acc, Index: z},
						ir.MulE(&ir.Load{Buf: x, Index: []ir.Expr{k}}, &ir.Load{Buf: y, Index: []ir.Expr{i, k}}))}),
				&ir.Store{Buf: out, Index: []ir.Expr{i}, Value: &ir.Load{Buf: acc, Index: z}},
			)))}
	m := NewMachine()
	m.Bind(x, make([]float32, nn))
	m.Bind(y, make([]float32, nn*nn))
	m.Bind(out, make([]float32, nn))

	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.Run(kern, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.runInterp(kern, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
