package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
)

// vecAddKernel builds b[i] = a[i] + 1 over n elements.
func vecAddKernel(n int) (*ir.Kernel, *ir.Buffer, *ir.Buffer) {
	a := ir.NewBuffer("a", ir.Global, n)
	b := ir.NewBuffer("b", ir.Global, n)
	i := ir.V("i")
	k := &ir.Kernel{
		Name: "vadd",
		Args: []*ir.Buffer{a, b},
		Body: ir.Loop(i, n, &ir.Store{Buf: b, Index: []ir.Expr{i}, Value: ir.AddE(&ir.Load{Buf: a, Index: []ir.Expr{i}}, ir.CFloat(1))}),
	}
	return k, a, b
}

func TestRunVecAdd(t *testing.T) {
	k, a, b := vecAddKernel(8)
	m := NewMachine()
	in := make([]float32, 8)
	for i := range in {
		in[i] = float32(i)
	}
	m.Bind(a, in)
	m.Bind(b, make([]float32, 8))
	if err := m.Run(k, nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Buffer(b) {
		if v != float32(i)+1 {
			t.Fatalf("b[%d] = %v", i, v)
		}
	}
}

func TestRunUnboundArg(t *testing.T) {
	k, a, _ := vecAddKernel(4)
	m := NewMachine()
	m.Bind(a, make([]float32, 4))
	err := m.Run(k, nil)
	if err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("want unbound error, got %v", err)
	}
}

func TestRunShortBuffer(t *testing.T) {
	k, a, b := vecAddKernel(8)
	m := NewMachine()
	m.Bind(a, make([]float32, 8))
	m.Bind(b, make([]float32, 4))
	err := m.Run(k, nil)
	if err == nil || !strings.Contains(err.Error(), "shape needs") {
		t.Fatalf("want size error, got %v", err)
	}
}

func TestRunOutOfBounds(t *testing.T) {
	a := ir.NewBuffer("a", ir.Global, 4)
	i := ir.V("i")
	k := &ir.Kernel{
		Name: "oob",
		Args: []*ir.Buffer{a},
		Body: ir.Loop(i, 8, &ir.Store{Buf: a, Index: []ir.Expr{i}, Value: ir.CFloat(0)}),
	}
	m := NewMachine()
	m.Bind(a, make([]float32, 8)) // physically big enough, logically OOB
	err := m.Run(k, nil)
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("want OOB error, got %v", err)
	}
}

func TestSymbolicShapes(t *testing.T) {
	n := ir.Param("n")
	out := ir.NewBufferE("out", ir.Global, n)
	i := ir.V("i")
	k := &ir.Kernel{
		Name:       "fill",
		Args:       []*ir.Buffer{out},
		ScalarArgs: []*ir.Var{n},
		Body:       ir.LoopE(i, n, &ir.Store{Buf: out, Index: []ir.Expr{i}, Value: ir.CFloat(3)}),
	}
	m := NewMachine()
	m.Bind(out, make([]float32, 10))
	if err := m.Run(k, map[*ir.Var]int64{n: 5}); err != nil {
		t.Fatal(err)
	}
	got := m.Buffer(out)
	for i := 0; i < 5; i++ {
		if got[i] != 3 {
			t.Fatalf("out[%d] = %v", i, got[i])
		}
	}
	if got[5] != 0 {
		t.Fatal("kernel wrote past symbolic extent")
	}
	// Missing scalar binding must fail.
	if err := m.Run(k, nil); err == nil {
		t.Fatal("want error for missing scalar binding")
	}
}

func TestLocalAlloc(t *testing.T) {
	in := ir.NewBuffer("in", ir.Global, 4)
	out := ir.NewBuffer("out", ir.Global, 1)
	acc := ir.NewBuffer("acc", ir.Private, 1)
	i := ir.V("i")
	z := []ir.Expr{ir.CInt(0)}
	k := &ir.Kernel{
		Name: "reduce",
		Args: []*ir.Buffer{in, out},
		Body: ir.Seq(
			&ir.Alloc{Buf: acc},
			&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(0)},
			ir.Loop(i, 4, &ir.Store{Buf: acc, Index: z,
				Value: ir.AddE(&ir.Load{Buf: acc, Index: z}, &ir.Load{Buf: in, Index: []ir.Expr{i}})}),
			&ir.Store{Buf: out, Index: z, Value: &ir.Load{Buf: acc, Index: z}},
		),
	}
	m := NewMachine()
	m.Bind(in, []float32{1, 2, 3, 4})
	m.Bind(out, make([]float32, 1))
	if err := m.Run(k, nil); err != nil {
		t.Fatal(err)
	}
	if m.Buffer(out)[0] != 10 {
		t.Fatalf("sum = %v, want 10", m.Buffer(out)[0])
	}
}

func TestChannelPipeline(t *testing.T) {
	// Reproduces Listing 4.13: A writes a[i]+1 to c0, B multiplies by 0.35
	// into c1, C divides by -1.1 into d.
	c0 := &ir.Channel{Name: "c0"}
	c1 := &ir.Channel{Name: "c1", Depth: 8}
	a := ir.NewBuffer("a", ir.Global, 8)
	d := ir.NewBuffer("d", ir.Global, 8)
	i := ir.V("i")
	kA := &ir.Kernel{Name: "A", Args: []*ir.Buffer{a},
		Body: ir.Loop(i, 8, &ir.ChannelWrite{Ch: c0, Value: ir.AddE(&ir.Load{Buf: a, Index: []ir.Expr{i}}, ir.CFloat(1))})}
	j := ir.V("j")
	kB := &ir.Kernel{Name: "B", Autorun: true,
		Body: ir.Loop(j, 8, &ir.ChannelWrite{Ch: c1, Value: ir.MulE(&ir.ChannelRead{Ch: c0}, ir.CFloat(0.35))})}
	l := ir.V("l")
	kC := &ir.Kernel{Name: "C", Args: []*ir.Buffer{d},
		Body: ir.Loop(l, 8, &ir.Store{Buf: d, Index: []ir.Expr{l}, Value: ir.DivE(&ir.ChannelRead{Ch: c1}, ir.CFloat(-1.1))})}

	m := NewMachine()
	in := make([]float32, 8)
	for i := range in {
		in[i] = float32(i)
	}
	m.Bind(a, in)
	m.Bind(d, make([]float32, 8))
	if err := m.RunGraph([]*ir.Kernel{kA, kB, kC}, nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Buffer(d) {
		want := (float32(i) + 1) * 0.35 / -1.1
		if math.Abs(float64(v-want)) > 1e-6 {
			t.Fatalf("d[%d] = %v, want %v", i, v, want)
		}
	}
	if m.Channel(c0).Peak != 8 || m.Channel(c1).Peak != 8 {
		t.Fatalf("peaks: %d %d", m.Channel(c0).Peak, m.Channel(c1).Peak)
	}
}

func TestChannelUnderflow(t *testing.T) {
	c := &ir.Channel{Name: "c"}
	d := ir.NewBuffer("d", ir.Global, 1)
	k := &ir.Kernel{Name: "C", Args: []*ir.Buffer{d},
		Body: &ir.Store{Buf: d, Index: []ir.Expr{ir.CInt(0)}, Value: &ir.ChannelRead{Ch: c}}}
	// A channel with no writer is never elided, so the vector tier still
	// reports the underflow.
	ks, bufs := ElideChannels([]*ir.Kernel{k})
	if len(bufs) != 0 {
		t.Fatalf("elided %d channels of an unbalanced graph", len(bufs))
	}
	m := NewMachine()
	m.SetTier(TierVector)
	m.Bind(d, make([]float32, 1))
	err := m.RunGraph(ks, nil)
	if err == nil || !strings.Contains(err.Error(), "empty channel") {
		t.Fatalf("want underflow error, got %v", err)
	}
	if !errors.Is(err, errChannelDeadlock) {
		t.Fatalf("underflow must wrap errChannelDeadlock, got %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) || de.Channel != "c" || de.Undrained != 0 {
		t.Fatalf("want DeadlockError for channel c, got %#v", de)
	}
}

func TestGraphUndrainedChannel(t *testing.T) {
	c := &ir.Channel{Name: "c"}
	a := ir.NewBuffer("a", ir.Global, 2)
	i := ir.V("i")
	kA := &ir.Kernel{Name: "A", Args: []*ir.Buffer{a},
		Body: ir.Loop(i, 2, &ir.ChannelWrite{Ch: c, Value: &ir.Load{Buf: a, Index: []ir.Expr{i}}})}
	ks, bufs := ElideChannels([]*ir.Kernel{kA})
	if len(bufs) != 0 {
		t.Fatalf("elided %d channels of an unbalanced graph", len(bufs))
	}
	m := NewMachine()
	m.SetTier(TierVector)
	m.Bind(a, make([]float32, 2))
	err := m.RunGraph(ks, nil)
	if err == nil || !strings.Contains(err.Error(), "undrained") {
		t.Fatalf("want undrained error, got %v", err)
	}
	if !errors.Is(err, errChannelDeadlock) {
		t.Fatalf("undrained channels must wrap errChannelDeadlock, got %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) || de.Channel != "c" || de.Undrained != 2 {
		t.Fatalf("want DeadlockError{c, 2}, got %#v", de)
	}
}

func TestIfThenSelect(t *testing.T) {
	// Zero-padding pattern: out[i] = (i >= 1 && i < 3) ? in[i-1] : 0
	in := ir.NewBuffer("in", ir.Global, 2)
	out := ir.NewBuffer("out", ir.Global, 4)
	i := ir.V("i")
	cond := &ir.Binary{Op: ir.And,
		A: &ir.Binary{Op: ir.GE, A: i, B: ir.CInt(1)},
		B: &ir.Binary{Op: ir.LT, A: i, B: ir.CInt(3)}}
	k := &ir.Kernel{Name: "pad", Args: []*ir.Buffer{in, out},
		Body: ir.Loop(i, 4, &ir.Store{Buf: out, Index: []ir.Expr{i},
			Value: &ir.Select{Cond: cond, A: &ir.Load{Buf: in, Index: []ir.Expr{ir.SubE(i, ir.CInt(1))}}, B: ir.CFloat(0)}})}
	// Select must not evaluate the taken-from branch when cond is false —
	// in[i-1] would be out of bounds at i=0.
	m := NewMachine()
	m.Bind(in, []float32{5, 6})
	m.Bind(out, make([]float32, 4))
	if err := m.Run(k, nil); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 5, 6, 0}
	for i, v := range m.Buffer(out) {
		if v != want[i] {
			t.Fatalf("out = %v, want %v", m.Buffer(out), want)
		}
	}
}

func TestIntrinsics(t *testing.T) {
	out := ir.NewBuffer("out", ir.Global, 3)
	k := &ir.Kernel{Name: "intr", Args: []*ir.Buffer{out},
		Body: ir.Seq(
			&ir.Store{Buf: out, Index: []ir.Expr{ir.CInt(0)}, Value: &ir.Call{Fn: "exp", Args: []ir.Expr{ir.CFloat(0)}}},
			&ir.Store{Buf: out, Index: []ir.Expr{ir.CInt(1)}, Value: &ir.Call{Fn: "max", Args: []ir.Expr{ir.CFloat(-2), ir.CFloat(3)}}},
			&ir.Store{Buf: out, Index: []ir.Expr{ir.CInt(2)}, Value: &ir.Call{Fn: "sqrt", Args: []ir.Expr{ir.CFloat(9)}}},
		)}
	m := NewMachine()
	m.Bind(out, make([]float32, 3))
	if err := m.Run(k, nil); err != nil {
		t.Fatal(err)
	}
	got := m.Buffer(out)
	if got[0] != 1 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("intrinsics = %v", got)
	}
}

func TestFifoOrder(t *testing.T) {
	f := &Fifo{}
	for i := 0; i < 100; i++ {
		f.push(float32(i))
	}
	for i := 0; i < 100; i++ {
		v, ok := f.pop()
		if !ok || v != float32(i) {
			t.Fatalf("pop %d = %v,%v", i, v, ok)
		}
	}
	if _, ok := f.pop(); ok {
		t.Fatal("pop from empty must fail")
	}
	if f.Peak != 100 {
		t.Fatalf("peak = %d", f.Peak)
	}
}
