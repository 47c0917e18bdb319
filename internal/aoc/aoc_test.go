package aoc

import (
	"strings"
	"testing"

	"repro/internal/fpga"
	"repro/internal/ir"
)

// convNaive builds the Listing 5.1 shape: global scratchpad, separate
// reduction and activation loops.
func convNaive(c2, h, w, c1, f int) *ir.Kernel {
	scratch := ir.NewBuffer("scratchpad", ir.Global, h, w)
	in := ir.NewBuffer("in_fm", ir.Global, c1, h+f-1, w+f-1)
	wt := ir.NewBuffer("w", ir.Global, c2, c1, f, f)
	out := ir.NewBuffer("out_fm", ir.Global, c2, h, w)
	ax1, yy, xx, rc, ry, rx := ir.V("ax1"), ir.V("yy"), ir.V("xx"), ir.V("rc"), ir.V("ry"), ir.V("rx")
	ax2, ax3 := ir.V("ax2"), ir.V("ax3")
	acc := &ir.Store{Buf: scratch, Index: []ir.Expr{yy, xx},
		Value: ir.AddE(&ir.Load{Buf: scratch, Index: []ir.Expr{yy, xx}},
			ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{rc, ir.AddE(yy, ry), ir.AddE(xx, rx)}},
				&ir.Load{Buf: wt, Index: []ir.Expr{ax1, rc, ry, rx}}))}
	reduce := ir.Loop(yy, h, ir.Loop(xx, w, ir.Seq(
		&ir.Store{Buf: scratch, Index: []ir.Expr{yy, xx}, Value: ir.CFloat(0)},
		ir.Loop(rc, c1, ir.Loop(ry, f, ir.Loop(rx, f, acc))),
	)))
	writeback := ir.Loop(ax2, h, ir.Loop(ax3, w, &ir.Store{Buf: out, Index: []ir.Expr{ax1, ax2, ax3},
		Value: ir.MaxE(&ir.Load{Buf: scratch, Index: []ir.Expr{ax2, ax3}}, ir.CFloat(0))}))
	return &ir.Kernel{
		Name: "conv_naive",
		Args: []*ir.Buffer{scratch, in, wt, out},
		Body: ir.Loop(ax1, c2, ir.Seq(reduce, writeback)),
	}
}

func TestNaiveConvSerializedAndHighII(t *testing.T) {
	k := convNaive(16, 11, 11, 6, 3)
	m, err := Analyze(k, fpga.S10MX, DefaultOptions) // no auto-unroll
	if err != nil {
		t.Fatal(err)
	}
	root := m.root.(*loopNode) // ax1
	if root.mode != modeSerial {
		t.Fatalf("naive conv outer loop must serialize (global scratchpad RAW), mode=%d", root.mode)
	}
	// The reduction accumulates through global memory: II = 5 somewhere in
	// the nest.
	found := false
	var scan func(n node)
	scan = func(n node) {
		switch x := n.(type) {
		case *loopNode:
			if x.ii == iiGlobalAccum {
				found = true
			}
			scan(x.child)
		case *blockNode:
			for _, c := range x.children {
				scan(c)
			}
		}
	}
	scan(m.root)
	if !found {
		t.Fatal("global accumulation must have II=5")
	}
}

func TestAutoUnrollQuartusVersions(t *testing.T) {
	k := convNaive(16, 11, 11, 6, 3)
	mOld, err := Analyze(k, fpga.S10SX, DefaultOptions) // Quartus 18.1: auto-unrolls F×F
	if err != nil {
		t.Fatal(err)
	}
	mNew, err := Analyze(k, fpga.S10MX, DefaultOptions) // Quartus 19.1: no auto-unroll
	if err != nil {
		t.Fatal(err)
	}
	// Auto-unroll replicates the MAC 9x.
	if mOld.DSPs <= mNew.DSPs {
		t.Fatalf("auto-unrolled design must use more DSPs: %d vs %d", mOld.DSPs, mNew.DSPs)
	}
	if cOld, cNew := mOld.Cycles(nil), mNew.Cycles(nil); cOld >= cNew {
		t.Fatalf("auto-unrolled design must be faster: %d vs %d cycles", cOld, cNew)
	}
}

// optimizedDense builds Listing 5.6: private accumulator, inner loop unrolled.
func optimizedDense(mm, nn, uf int) (*ir.Kernel, *ir.Var) {
	in := ir.NewBuffer("I", ir.Global, nn)
	wt := ir.NewBuffer("W", ir.Global, mm, nn)
	bias := ir.NewBuffer("bias", ir.Global, mm)
	out := ir.NewBuffer("y", ir.Global, mm)
	acc := ir.NewBuffer("dot", ir.Private, 1)
	j, ko, ki := ir.V("j"), ir.V("ko"), ir.V("ki")
	z := []ir.Expr{ir.CInt(0)}
	kidx := ir.AddE(ir.MulE(ko, ir.CInt(int64(uf))), ki)
	inner := &ir.For{Var: ki, Extent: ir.CInt(int64(uf)), Unroll: -1,
		Body: &ir.Store{Buf: acc, Index: z,
			Value: ir.AddE(&ir.Load{Buf: acc, Index: z},
				ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{kidx}}, &ir.Load{Buf: wt, Index: []ir.Expr{j, kidx}}))}}
	body := ir.Loop(j, mm, ir.Seq(
		&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(0)},
		ir.Loop(ko, nn/uf, inner),
		&ir.Store{Buf: out, Index: []ir.Expr{j},
			Value: ir.AddE(&ir.Load{Buf: acc, Index: z}, &ir.Load{Buf: bias, Index: []ir.Expr{j}})},
	))
	return &ir.Kernel{Name: "dense_opt", Args: []*ir.Buffer{in, wt, bias, out},
		Body: ir.Seq(&ir.Alloc{Buf: acc}, body)}, ko
}

func TestLSUCoalescingAndCaching(t *testing.T) {
	k, _ := optimizedDense(120, 400, 8)
	m, err := Analyze(k, fpga.S10MX, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	var wLSU, iLSU *LSU
	for _, l := range m.LSUs {
		if l.Kind == Pipelined || l.IsWrite {
			continue
		}
		switch l.Buf.Name {
		case "W":
			wLSU = l
		case "I":
			iLSU = l
		}
	}
	if wLSU == nil || iLSU == nil {
		t.Fatal("missing LSUs for W/I")
	}
	// W[j][ko*8+ki]: contiguous in unrolled ki -> width 8, one replica, and
	// strictly sequential across (j, ko) -> a streaming LSU (§2.4.3).
	if wLSU.WidthWords != 8 || wLSU.Replicas != 1 {
		t.Fatalf("W LSU width=%d replicas=%d, want 8/1", wLSU.WidthWords, wLSU.Replicas)
	}
	if wLSU.Kind != Streaming {
		t.Fatalf("W LSU kind = %s, want streaming (sequential, no reuse)", wLSU.Kind)
	}
	// I[ko*8+ki] is invariant to the j loop -> cached (§5.1.2: "the cache
	// size for I is large enough for the vector to fit in BRAM").
	if !iLSU.Cached {
		t.Fatal("I LSU must be cached (reuse across j)")
	}
	if wLSU.Cached {
		t.Fatal("W has no reuse; must not be cached")
	}
	// Traffic: W reads the full matrix once (120*400*4 bytes); I only once.
	if got := wLSU.trafficBytes(nil); got != 120*400*4 {
		t.Fatalf("W traffic = %d, want %d", got, 120*400*4)
	}
	if got := iLSU.trafficBytes(nil); got != 400*4 {
		t.Fatalf("I traffic = %d, want %d", got, 400*4)
	}
}

func TestLocalAccumulatorIIWithFPRelaxed(t *testing.T) {
	k, _ := optimizedDense(16, 64, 8)
	m1, _ := Analyze(k, fpga.S10MX, Options{FPRelaxed: true, FPC: true})
	m2, _ := Analyze(k, fpga.S10MX, Options{FPRelaxed: false, FPC: true})
	if c1, c2 := m1.Cycles(nil), m2.Cycles(nil); c1 >= c2 {
		t.Fatalf("-fp-relaxed must reduce cycles via II=1 accumulator: %d vs %d", c1, c2)
	}
}

func TestMACFusionDSPs(t *testing.T) {
	k, _ := optimizedDense(16, 64, 8)
	mFused, _ := Analyze(k, fpga.S10MX, Options{FPRelaxed: true, FPC: true})
	mSplit, _ := Analyze(k, fpga.S10MX, Options{FPRelaxed: true, FPC: false})
	// 8-lane MAC: fused = 8 DSPs (+1 for the bias add), split = 16 (+1).
	if mFused.DSPs >= mSplit.DSPs {
		t.Fatalf("-fpc must reduce DSPs: %d vs %d", mFused.DSPs, mSplit.DSPs)
	}
	if mFused.DSPs != 9 {
		t.Fatalf("fused dense DSPs = %d, want 9 (8 MAC lanes + bias add)", mFused.DSPs)
	}
}

func TestReplicationForStridedAccess(t *testing.T) {
	// out[i] = in[k*i]: small strides coalesce into a wider over-fetching
	// access (stride-2 convolutions); large strides replicate the LSU.
	mk := func(stride int64) *KernelModel {
		in := ir.NewBuffer("in", ir.Global, 16*int(stride))
		out := ir.NewBuffer("out", ir.Global, 16)
		i := ir.V("i")
		body := &ir.For{Var: i, Extent: ir.CInt(16), Unroll: -1,
			Body: &ir.Store{Buf: out, Index: []ir.Expr{i},
				Value: &ir.Load{Buf: in, Index: []ir.Expr{ir.MulE(ir.CInt(stride), i)}}}}
		k := &ir.Kernel{Name: "gather", Args: []*ir.Buffer{in, out}, Body: body}
		m, err := Analyze(k, fpga.S10MX, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	wide := mk(2)
	for _, l := range wide.LSUs {
		if l.Buf.Name == "in" {
			// Span coverage: 1 + 2*(16-1) = 31 words, one unit.
			if l.Replicas != 1 || l.WidthWords != 31 {
				t.Fatalf("stride-2 load: width=%d replicas=%d, want 31/1", l.WidthWords, l.Replicas)
			}
		}
		if l.Buf.Name == "out" && (l.WidthWords != 16 || l.Replicas != 1) {
			t.Fatalf("contiguous store: width=%d replicas=%d, want 16/1", l.WidthWords, l.Replicas)
		}
	}
	far := mk(64)
	for _, l := range far.LSUs {
		if l.Buf.Name == "in" {
			if l.Replicas != 16 || l.WidthWords != 1 {
				t.Fatalf("stride-64 load: width=%d replicas=%d, want 1/16", l.WidthWords, l.Replicas)
			}
		}
	}
}

func TestSymbolicStridesPreventCoalescing(t *testing.T) {
	n := ir.Param("n")
	mk := func(explicit bool) *KernelModel {
		in := ir.NewBufferE("in", ir.Global, n)
		out := ir.NewBufferE("out", ir.Global, n)
		in.ExplicitStrides = explicit
		out.ExplicitStrides = explicit
		i, u := ir.V("i"), ir.V("u")
		body := ir.LoopE(i, ir.DivE(n, ir.CInt(8)),
			&ir.For{Var: u, Extent: ir.CInt(8), Unroll: -1,
				Body: &ir.Store{Buf: out, Index: []ir.Expr{ir.AddE(ir.MulE(i, ir.CInt(8)), u)},
					Value: ir.AddE(&ir.Load{Buf: in, Index: []ir.Expr{ir.AddE(ir.MulE(i, ir.CInt(8)), u)}}, ir.CFloat(1))}})
		k := &ir.Kernel{Name: "sym", Args: []*ir.Buffer{in, out}, ScalarArgs: []*ir.Var{n}, Body: body}
		m, err := Analyze(k, fpga.S10MX, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	withStrides := mk(true)
	workaround := mk(false)
	for _, l := range withStrides.LSUs {
		if l.WidthWords != 1 || l.Replicas != 8 || !l.Nonaligned {
			t.Fatalf("explicit-stride access must replicate nonaligned LSUs: %+v", l)
		}
	}
	for _, l := range workaround.LSUs {
		if l.WidthWords != 8 || l.Replicas != 1 {
			t.Fatalf("stride-1 workaround must coalesce: %+v", l)
		}
	}
	// The workaround is the cheaper and faster design (Listing 5.11's point).
	if workaround.Area.ALUTs >= withStrides.Area.ALUTs {
		t.Fatal("coalesced design must use less logic")
	}
	bind := map[*ir.Var]int64{n: 1024}
	if workaround.Cycles(bind) > withStrides.Cycles(bind) {
		t.Fatal("coalesced design must not be slower")
	}
}

func TestDesignFitAndRoute(t *testing.T) {
	k, _ := optimizedDense(120, 400, 8)
	d, err := Compile("dense-design", []*ir.Kernel{k}, fpga.A10, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Synthesizable() {
		t.Fatalf("small design must synthesize: %v", d.Err())
	}
	if d.FmaxMHz <= 0 || d.FmaxMHz > fpga.A10.BaseFmaxMHz {
		t.Fatalf("fmax out of range: %v", d.FmaxMHz)
	}
	logic, ram, dsp := d.Utilization()
	if logic <= 0 || logic > 1 || ram <= 0 || dsp < 0 {
		t.Fatalf("utilization out of range: %v %v %v", logic, ram, dsp)
	}
}

func TestDuplicateKernelNamesRejected(t *testing.T) {
	k1, _ := optimizedDense(16, 64, 8)
	k2, _ := optimizedDense(16, 64, 8)
	if _, err := Compile("dup", []*ir.Kernel{k1, k2}, fpga.A10, DefaultOptions); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestFmaxDegradesWithUnroll(t *testing.T) {
	var prev float64 = 1e9
	for _, uf := range []int{8, 40, 200} {
		k, _ := optimizedDense(120, 400, uf)
		d, err := Compile("d", []*ir.Kernel{k}, fpga.A10, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		if d.FmaxMHz > prev {
			t.Fatalf("fmax must not increase with unroll factor: uf=%d fmax=%v prev=%v", uf, d.FmaxMHz, prev)
		}
		prev = d.FmaxMHz
	}
}

func TestOverflowingDesignFailsFit(t *testing.T) {
	// 30 naive conv kernels (one per MobileNet layer) exhaust the A10 (the thesis's base MobileNet).
	var ks []*ir.Kernel
	for i := 0; i < 30; i++ {
		k := convNaive(16, 28, 28, 64, 3)
		k.Name = k.Name + string(rune('a'+i%26)) + string(rune('a'+i/26))
		ks = append(ks, k)
	}
	d, err := Compile("overflow", ks, fpga.A10, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fits {
		t.Fatalf("30 naive kernels must not fit the A10 (area %+v)", d.Area)
	}
	if d.Err() == nil {
		t.Fatal("Err must describe the failure")
	}
	// The same design fits the S10SX (the thesis deploys base MobileNet there).
	d2, err := Compile("overflow", ks, fpga.S10SX, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Fits {
		t.Fatalf("naive design must fit the larger S10SX: %v", d2.Err())
	}
}

func TestCyclesScaleWithShape(t *testing.T) {
	k, _ := optimizedDense(120, 400, 8)
	m, err := Analyze(k, fpga.S10MX, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Cycles(nil)
	if c <= 0 {
		t.Fatal("cycles must be positive")
	}
	k2, _ := optimizedDense(240, 400, 8)
	m2, _ := Analyze(k2, fpga.S10MX, DefaultOptions)
	if c2 := m2.Cycles(nil); c2 <= c {
		t.Fatalf("doubling rows must increase cycles: %d vs %d", c, c2)
	}
}

func TestTimeUSMemoryBound(t *testing.T) {
	// A huge, barely-computing kernel: copy 64 MB. Must be bandwidth-bound.
	n := 16 << 20
	in := ir.NewBuffer("in", ir.Global, n)
	out := ir.NewBuffer("out", ir.Global, n)
	i := ir.V("i")
	k := &ir.Kernel{Name: "copy", Args: []*ir.Buffer{in, out},
		Body: ir.Loop(i, n, &ir.Store{Buf: out, Index: []ir.Expr{i}, Value: &ir.Load{Buf: in, Index: []ir.Expr{i}}})}
	m, err := Analyze(k, fpga.S10MX, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	tm := m.TimeUS(nil, 300, fpga.S10MX)
	minUS := float64(2*n*4) / (fpga.S10MX.PeakGBps * 1e3)
	if tm < minUS {
		t.Fatalf("time %v us beats the memory bandwidth floor %v us", tm, minUS)
	}
}

func TestRoutingMapShape(t *testing.T) {
	k, _ := optimizedDense(120, 400, 40)
	d, _ := Compile("d", []*ir.Kernel{k}, fpga.S10SX, DefaultOptions)
	rows := d.RoutingMap(40, 12)
	if len(rows) != 12 || len(rows[0]) != 40 {
		t.Fatalf("map dims wrong: %dx%d", len(rows), len(rows[0]))
	}
}

func TestResNet33LSUFormulaFromThesis(t *testing.T) {
	// §5.1.1 states the exact LSU inference for the tiled 3x3 convolution:
	// "there are C1vec × F LSUs for I with 32 × W2vec × F bit reads" and the
	// weight reads are "coalesced into an access width that is
	// 32 × C1vec × F × F bits wide". Check the model reproduces the formulas
	// for the ResNet 7/8/3/3 configuration (Table 6.13).
	pc, err := topiConvParamForTest(t)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Analyze(pc, fpga.S10SX, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	const (
		w2vec = 7
		c1vec = 8
		f     = 3
	)
	var iLSU, wLSU *LSU
	for _, l := range m.LSUs {
		if l.Kind == Pipelined || l.IsWrite {
			continue
		}
		switch {
		case strings.HasSuffix(l.Buf.Name, "_in"):
			iLSU = l
		case strings.HasSuffix(l.Buf.Name, "_wt"):
			wLSU = l
		}
	}
	if iLSU == nil || wLSU == nil {
		t.Fatal("missing I/W LSUs")
	}
	// I: C1vec × F replicas of 32·W2vec·F-bit reads.
	if iLSU.Replicas != c1vec*f {
		t.Fatalf("I replicas = %d, thesis formula gives C1vec*F = %d", iLSU.Replicas, c1vec*f)
	}
	if iLSU.WidthWords != w2vec*f {
		t.Fatalf("I width = %d words, thesis formula gives W2vec*F = %d", iLSU.WidthWords, w2vec*f)
	}
	// W: one unit of width 32·C1vec·F·F bits.
	if wLSU.Replicas != 1 || wLSU.WidthWords != c1vec*f*f {
		t.Fatalf("W LSU = %dx%d words, thesis formula gives 1x%d", wLSU.Replicas, wLSU.WidthWords, c1vec*f*f)
	}
}
