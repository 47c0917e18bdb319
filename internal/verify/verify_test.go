package verify

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
)

func prodCons(writeN, readN int, depth int) []*ir.Kernel {
	c := &ir.Channel{Name: "c", Depth: depth}
	a := ir.NewBuffer("a", ir.Global, writeN)
	d := ir.NewBuffer("d", ir.Global, readN)
	i, j := ir.V("i"), ir.V("j")
	prod := &ir.Kernel{Name: "prod", Args: []*ir.Buffer{a},
		Body: ir.Loop(i, writeN, &ir.ChannelWrite{Ch: c, Value: &ir.Load{Buf: a, Index: []ir.Expr{i}}})}
	cons := &ir.Kernel{Name: "cons", Args: []*ir.Buffer{d},
		Body: ir.Loop(j, readN, &ir.Store{Buf: d, Index: []ir.Expr{j}, Value: &ir.ChannelRead{Ch: c}})}
	return []*ir.Kernel{prod, cons}
}

func diag(res *Result, check string) *Diagnostic {
	for i := range res.Diags {
		if res.Diags[i].Check == check {
			return &res.Diags[i]
		}
	}
	return nil
}

func TestBalancedPipelinePasses(t *testing.T) {
	res := Kernels(prodCons(64, 64, 16))
	if len(res.Errors()) != 0 {
		t.Fatalf("balanced pipeline must verify clean, got: %v", res.Err())
	}
	if res.Err() != nil {
		t.Fatal("Err must be nil when OK")
	}
}

func TestTripCountMismatchRejected(t *testing.T) {
	// 64 writes vs 65 reads: the same set deadlocks the simulator, which
	// verify must predict statically.
	ks := prodCons(64, 65, 16)

	m := sim.NewMachine()
	m.Bind(ks[0].Args[0], make([]float32, 64))
	m.Bind(ks[1].Args[0], make([]float32, 65))
	var deadlock *sim.DeadlockError
	if err := m.RunGraph(ks, nil); !errors.As(err, &deadlock) {
		t.Fatalf("expected the simulator to deadlock on this set, got %v", err)
	}

	res := Kernels(ks)
	d := diag(res, "trip-count")
	if d == nil || d.Severity != Error {
		t.Fatalf("want trip-count error, got %v", res.Diags)
	}
	if d.Channel != "c" || !strings.Contains(d.Msg, "64") || !strings.Contains(d.Msg, "65") {
		t.Fatalf("diagnostic should name channel and both counts: %s", d)
	}
	if res.Err() == nil {
		t.Fatal("Err must be non-nil on trip-count error")
	}
}

func TestSymbolicTripCountsCompare(t *testing.T) {
	// Producer writes n*m in a nested loop; consumer reads m*n in one flat
	// loop over a product extent. Simplification must prove them equal.
	n, m := ir.Param("n"), ir.Param("m")
	c := &ir.Channel{Name: "c", Depth: 8}
	i, j, l := ir.V("i"), ir.V("j"), ir.V("l")
	prod := &ir.Kernel{Name: "prod", ScalarArgs: []*ir.Var{n, m},
		Body: ir.LoopE(i, n, ir.LoopE(j, m, &ir.ChannelWrite{Ch: c, Value: ir.CFloat(1)}))}
	sink := ir.NewBufferE("s", ir.Global, ir.CInt(1))
	cons := &ir.Kernel{Name: "cons", Args: []*ir.Buffer{sink}, ScalarArgs: []*ir.Var{n, m},
		Body: ir.LoopE(l, ir.MulE(n, m), &ir.Store{Buf: sink, Index: []ir.Expr{ir.CInt(0)}, Value: &ir.ChannelRead{Ch: c}})}
	res := Kernels([]*ir.Kernel{prod, cons})
	if d := diag(res, "trip-count"); d != nil {
		t.Fatalf("symbolic n*m vs n*m must balance, got %s", d)
	}

	// Now break the reader: n*m vs n*(m+1) must be caught symbolically.
	cons2 := &ir.Kernel{Name: "cons", Args: []*ir.Buffer{sink}, ScalarArgs: []*ir.Var{n, m},
		Body: ir.LoopE(l, ir.MulE(n, ir.AddE(m, ir.CInt(1))), &ir.Store{Buf: sink, Index: []ir.Expr{ir.CInt(0)}, Value: &ir.ChannelRead{Ch: c}})}
	res = Kernels([]*ir.Kernel{prod, cons2})
	d := diag(res, "trip-count")
	if d == nil || d.Severity != Error {
		t.Fatalf("want symbolic trip-count error, got %v", res.Diags)
	}
}

func TestBranchGuardedCountsDemoteToWarning(t *testing.T) {
	// The writer pushes under a branch: the static count is an upper bound,
	// so a mismatch must warn, not reject.
	c := &ir.Channel{Name: "c", Depth: 8}
	a := ir.NewBuffer("a", ir.Global, 64)
	d := ir.NewBuffer("d", ir.Global, 64)
	i, j := ir.V("i"), ir.V("j")
	prod := &ir.Kernel{Name: "prod", Args: []*ir.Buffer{a},
		Body: ir.Loop(i, 64, &ir.IfThen{
			Cond: &ir.Binary{Op: ir.LT, A: i, B: ir.CInt(32)},
			Then: &ir.ChannelWrite{Ch: c, Value: &ir.Load{Buf: a, Index: []ir.Expr{i}}},
		})}
	cons := &ir.Kernel{Name: "cons", Args: []*ir.Buffer{d},
		Body: ir.Loop(j, 32, &ir.Store{Buf: d, Index: []ir.Expr{j}, Value: &ir.ChannelRead{Ch: c}})}
	res := Kernels([]*ir.Kernel{prod, cons})
	dg := diag(res, "trip-count")
	if dg == nil {
		t.Fatal("branch-guarded mismatch should still be reported")
	}
	if dg.Severity != Warning {
		t.Fatalf("branch-guarded mismatch must be a warning, got %s", dg)
	}
	if len(res.Errors()) != 0 {
		t.Fatalf("warnings alone must not fail verification: %v", res.Err())
	}
}

func TestSingleWriterSingleReaderDiscipline(t *testing.T) {
	c := &ir.Channel{Name: "c", Depth: 8}
	d := ir.NewBuffer("d", ir.Global, 128)
	i, j, l := ir.V("i"), ir.V("j"), ir.V("l")
	w1 := &ir.Kernel{Name: "w1", Body: ir.Loop(i, 64, &ir.ChannelWrite{Ch: c, Value: ir.CFloat(1)})}
	w2 := &ir.Kernel{Name: "w2", Body: ir.Loop(j, 64, &ir.ChannelWrite{Ch: c, Value: ir.CFloat(2)})}
	r := &ir.Kernel{Name: "r", Args: []*ir.Buffer{d},
		Body: ir.Loop(l, 128, &ir.Store{Buf: d, Index: []ir.Expr{l}, Value: &ir.ChannelRead{Ch: c}})}
	res := Kernels([]*ir.Kernel{w1, w2, r})
	dg := diag(res, "discipline")
	if dg == nil || dg.Severity != Error {
		t.Fatalf("want discipline error for double writer, got %v", res.Diags)
	}
	if !strings.Contains(dg.Msg, "w1") || !strings.Contains(dg.Msg, "w2") {
		t.Fatalf("diagnostic should name both writers: %s", dg)
	}
}

func TestUnconnectedAndDepthZeroChannels(t *testing.T) {
	cw := &ir.Channel{Name: "orphan_w", Depth: 4}
	cr := &ir.Channel{Name: "orphan_r", Depth: 0}
	d := ir.NewBuffer("d", ir.Global, 8)
	i, j := ir.V("i"), ir.V("j")
	w := &ir.Kernel{Name: "w", Body: ir.Loop(i, 8, &ir.ChannelWrite{Ch: cw, Value: ir.CFloat(1)})}
	r := &ir.Kernel{Name: "r", Args: []*ir.Buffer{d},
		Body: ir.Loop(j, 8, &ir.Store{Buf: d, Index: []ir.Expr{j}, Value: &ir.ChannelRead{Ch: cr}})}
	res := Kernels([]*ir.Kernel{w, r})
	conns := 0
	for _, dg := range res.Errors() {
		if dg.Check == "connectivity" {
			conns++
		}
	}
	if conns != 2 {
		t.Fatalf("want 2 connectivity errors (write-only + read-only), got %v", res.Diags)
	}
	dz := diag(res, "depth")
	if dz == nil || dz.Severity != Warning || dz.Channel != "orphan_r" {
		t.Fatalf("want depth-0 warning on orphan_r, got %v", res.Diags)
	}
}

func TestCyclicTopologyRejected(t *testing.T) {
	// a -> b -> a through two channels: no execution order drains it.
	c1 := &ir.Channel{Name: "c1", Depth: 4}
	c2 := &ir.Channel{Name: "c2", Depth: 4}
	i, j := ir.V("i"), ir.V("j")
	ka := &ir.Kernel{Name: "ka",
		Body: ir.Loop(i, 8, &ir.ChannelWrite{Ch: c1, Value: ir.AddE(&ir.ChannelRead{Ch: c2}, ir.CFloat(1))})}
	kb := &ir.Kernel{Name: "kb",
		Body: ir.Loop(j, 8, &ir.ChannelWrite{Ch: c2, Value: ir.AddE(&ir.ChannelRead{Ch: c1}, ir.CFloat(1))})}
	res := Kernels([]*ir.Kernel{ka, kb})
	dg := diag(res, "cycle")
	if dg == nil || dg.Severity != Error {
		t.Fatalf("want cycle error, got %v", res.Diags)
	}
	if !strings.Contains(dg.Msg, "ka") || !strings.Contains(dg.Msg, "kb") {
		t.Fatalf("cycle diagnostic should show the path: %s", dg)
	}
}

func TestAutorunScalarArgsRejected(t *testing.T) {
	// ir.Validate only rejects buffer args on autorun kernels; the verifier
	// must also reject scalar args, which have no host delivery path either.
	n := ir.Param("n")
	c := &ir.Channel{Name: "c", Depth: 4}
	i := ir.V("i")
	k := &ir.Kernel{Name: "auto", Autorun: true, ScalarArgs: []*ir.Var{n},
		Body: ir.LoopE(i, n, &ir.ChannelWrite{Ch: c, Value: &ir.ChannelRead{Ch: c}})}
	if err := k.Validate(); err != nil {
		t.Fatalf("ir.Validate accepts this kernel today (%v); verifier test assumes that", err)
	}
	res := Kernels([]*ir.Kernel{k})
	dg := diag(res, "autorun-args")
	if dg == nil || dg.Severity != Error || dg.Kernel != "auto" {
		t.Fatalf("want autorun-args error, got %v", res.Diags)
	}
}

func TestStructurallyInvalidKernelIsDiagnosedNotPanicked(t *testing.T) {
	// Store to a buffer that is neither an argument nor allocated.
	ghost := ir.NewBuffer("ghost", ir.Global, 4)
	i := ir.V("i")
	k := &ir.Kernel{Name: "bad",
		Body: ir.Loop(i, 4, &ir.Store{Buf: ghost, Index: []ir.Expr{i}, Value: ir.CFloat(0)})}
	res := Kernels([]*ir.Kernel{k, nil})
	structs := 0
	for _, dg := range res.Errors() {
		if dg.Check == "structure" {
			structs++
		}
	}
	if structs != 2 {
		t.Fatalf("want 2 structure errors (invalid kernel + nil kernel), got %v", res.Diags)
	}
}
