package sim

import (
	"math"
	"testing"

	"repro/internal/ir"
)

func dumpAll(ks []*ir.Kernel) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = ir.Dump(k.Body)
	}
	return out
}

func chanOps(k *ir.Kernel) int {
	reads, writes := k.Channels()
	return len(reads) + len(writes)
}

// TestElideChannelsRewritesBalancedPipeline: a three-kernel pipeline whose
// writer sits in a Seq(init, reduce, write) body and whose sites walk
// different loop shapes is rewritten whole, runs bit-identically to the
// interpreter over the original channels, and leaves its input untouched.
func TestElideChannelsRewritesBalancedPipeline(t *testing.T) {
	c0, c1 := &ir.Channel{Name: "c0", Depth: 6}, &ir.Channel{Name: "c1", Depth: 6}
	a := ir.NewBuffer("a", ir.Global, 6, 4)
	d := ir.NewBuffer("d", ir.Global, 2, 3)
	acc := ir.NewBuffer("acc", ir.Private, 1)
	z := []ir.Expr{ir.CInt(0)}
	o, k := ir.V("o"), ir.V("k")
	writer := &ir.Kernel{Name: "W", Args: []*ir.Buffer{a}, Body: ir.Seq(&ir.Alloc{Buf: acc},
		ir.Loop(o, 6, ir.Seq(
			&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(0)},
			ir.Loop(k, 4, &ir.Store{Buf: acc, Index: z,
				Value: ir.AddE(&ir.Load{Buf: acc, Index: z}, &ir.Load{Buf: a, Index: []ir.Expr{o, k}})}),
			&ir.ChannelWrite{Ch: c0, Value: ir.MaxE(&ir.Load{Buf: acc, Index: z}, ir.CFloat(0))})))}
	i := ir.V("i")
	pass := &ir.Kernel{Name: "P", Autorun: true,
		Body: ir.Loop(i, 6, &ir.ChannelWrite{Ch: c1, Value: &ir.ChannelRead{Ch: c0}})}
	y, x := ir.V("y"), ir.V("x")
	reader := &ir.Kernel{Name: "R", Args: []*ir.Buffer{d},
		Body: ir.Loop(y, 2, ir.Loop(x, 3, &ir.Store{Buf: d, Index: []ir.Expr{y, x},
			Value: ir.MulE(&ir.ChannelRead{Ch: c1}, ir.CFloat(-0.5))}))}
	ks := []*ir.Kernel{writer, pass, reader}
	before := dumpAll(ks)

	out, bufs := ElideChannels(ks)
	if len(bufs) != 2 {
		t.Fatalf("rewrote %d channels, want 2", len(bufs))
	}
	for j, rk := range out {
		if chanOps(rk) != 0 {
			t.Fatalf("kernel %s still has channel ops:\n%s", rk.Name, ir.Dump(rk.Body))
		}
		if err := rk.Validate(); err != nil {
			t.Fatalf("rewritten kernel %s: %v", rk.Name, err)
		}
		if rk == ks[j] {
			t.Fatalf("kernel %s returned as the input pointer", rk.Name)
		}
	}
	for j, s := range dumpAll(ks) {
		if s != before[j] {
			t.Fatalf("ElideChannels mutated input kernel %s", ks[j].Name)
		}
	}

	in := make([]float32, 24)
	for j := range in {
		in[j] = float32(j%7) - 3
	}
	in[5], in[9] = float32(math.NaN()), float32(math.Copysign(0, -1))
	run := func(tier Tier, ks []*ir.Kernel, bufs []*ir.Buffer) []float32 {
		m := NewMachine()
		m.SetTier(tier)
		m.Bind(a, in)
		m.Bind(d, make([]float32, 6))
		for _, b := range bufs {
			n, _ := b.ConstLen()
			m.Bind(b, make([]float32, n))
		}
		if err := m.RunGraph(ks, nil); err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		return m.Buffer(d)
	}
	want := run(TierInterp, ks, nil)
	got := run(TierVector, out, bufs)
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("d[%d] = %v, interp over channels = %v", j, got[j], want[j])
		}
	}
}

// TestElideChannelsLeavesUnprovableChannels: every shape whose push/pop
// order the rewrite cannot prove comes back untouched — same kernel
// pointers, same IR, no buffers.
func TestElideChannelsLeavesUnprovableChannels(t *testing.T) {
	c := &ir.Channel{Name: "c"}
	a := ir.NewBuffer("a", ir.Global, 8)
	d := ir.NewBuffer("d", ir.Global, 8)
	push := func(i ir.Expr) ir.Stmt {
		return &ir.ChannelWrite{Ch: c, Value: &ir.Load{Buf: a, Index: []ir.Expr{i}}}
	}
	pop := func(j ir.Expr, v ir.Expr) ir.Stmt {
		return &ir.Store{Buf: d, Index: []ir.Expr{j}, Value: v}
	}
	writer := func(n int) *ir.Kernel {
		i := ir.V("i")
		return &ir.Kernel{Name: "W", Args: []*ir.Buffer{a}, Body: ir.Loop(i, n, push(i))}
	}
	reader := func(n int) *ir.Kernel {
		j := ir.V("j")
		return &ir.Kernel{Name: "R", Args: []*ir.Buffer{d}, Body: ir.Loop(j, n, pop(j, &ir.ChannelRead{Ch: c}))}
	}
	i, i2, j, j2, n := ir.V("i"), ir.V("i2"), ir.V("j"), ir.V("j2"), ir.Param("n")
	cases := map[string][]*ir.Kernel{
		"two write sites": {
			{Name: "W", Args: []*ir.Buffer{a}, Body: ir.Seq(ir.Loop(i, 8, push(i)), ir.Loop(i2, 8, push(i2)))},
			reader(8)},
		"two read sites": {writer(8),
			{Name: "R", Args: []*ir.Buffer{d}, Body: ir.Seq(
				ir.Loop(j, 8, pop(j, &ir.ChannelRead{Ch: c})), ir.Loop(j2, 8, pop(j2, &ir.ChannelRead{Ch: c})))}},
		"write under IfThen": {
			{Name: "W", Args: []*ir.Buffer{a}, Body: ir.Loop(i, 8,
				&ir.IfThen{Cond: &ir.Binary{Op: ir.GE, A: i, B: ir.CInt(0)}, Then: push(i)})},
			reader(8)},
		"read in Select arm": {writer(8),
			{Name: "R", Args: []*ir.Buffer{d}, Body: ir.Loop(j, 8, pop(j, &ir.Select{
				Cond: &ir.Binary{Op: ir.GE, A: j, B: ir.CInt(0)}, A: &ir.ChannelRead{Ch: c}, B: ir.CFloat(0)}))}},
		"symbolic extent": {
			{Name: "W", Args: []*ir.Buffer{a}, ScalarArgs: []*ir.Var{n}, Body: ir.LoopE(i, n, push(i))},
			reader(8)},
		"trip 8 vs 7":              {writer(8), reader(7)},
		"reader before writer":     {reader(8), writer(8)},
		"channel with no reader":   {writer(8)},
		"reader with no writer":    {reader(8)},
		"writer and reader in one": {{Name: "WR", Args: []*ir.Buffer{a, d}, Body: ir.Seq(ir.Loop(i, 8, push(i)), ir.Loop(j, 8, pop(j, &ir.ChannelRead{Ch: c})))}},
	}
	for name, ks := range cases {
		before := dumpAll(ks)
		out, bufs := ElideChannels(ks)
		if len(bufs) != 0 {
			t.Fatalf("%s: rewrote %d channels, want none", name, len(bufs))
		}
		for k := range ks {
			if out[k] != ks[k] {
				t.Fatalf("%s: kernel %s was rebuilt", name, ks[k].Name)
			}
		}
		for k, s := range dumpAll(ks) {
			if s != before[k] {
				t.Fatalf("%s: input kernel %s mutated", name, ks[k].Name)
			}
		}
	}
}
