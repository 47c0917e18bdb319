package cpuref

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

// convCase enumerates the conv shapes the example networks actually lower
// (LeNet 5x5s1, MobileNet 1x1s1/3x3s2, ResNet 7x7s2/3x3s1) plus padded and
// degenerate corners.
type convCase struct {
	c1, h, w, c2, f, s, p int
	bias, relu            bool
}

func convCases() []convCase {
	return []convCase{
		{1, 28, 28, 6, 5, 1, 0, true, true},    // LeNet conv1
		{6, 12, 12, 16, 5, 1, 0, true, true},   // LeNet conv2
		{3, 32, 32, 8, 3, 2, 0, true, false},   // strided
		{3, 16, 16, 4, 3, 1, 1, true, true},    // padded 3x3
		{8, 14, 14, 16, 1, 1, 0, false, false}, // pointwise, no bias
		{4, 9, 9, 5, 7, 2, 3, true, false},     // large filter, pad+stride
		{2, 7, 7, 3, 7, 1, 0, false, true},     // output 1x1
		{16, 30, 30, 32, 3, 1, 0, true, true},  // wide enough to parallelize
	}
}

func randConv(tc convCase, seed uint64) (in, w, bias *tensor.Tensor) {
	in = tensor.New(tc.c1, tc.h, tc.w)
	in.FillSeq(seed)
	w = tensor.New(tc.c2, tc.c1, tc.f, tc.f)
	w.FillSeq(seed + 1)
	if tc.bias {
		bias = tensor.New(tc.c2)
		bias.FillSeq(seed + 2)
	}
	return
}

// TestConv2DGEMMMatchesNaive checks the GEMM lowering against the direct
// loop-nest oracle, bit-exactly on unpadded cases and to float tolerance on
// padded ones (the im2col zeros add exact +0.0 terms the naive loop skips).
func TestConv2DGEMMMatchesNaive(t *testing.T) {
	for i, tc := range convCases() {
		in, w, bias := randConv(tc, uint64(100+i))
		want := conv2DNaive(in, w, bias, tc.s, tc.p, tc.relu)
		for _, workers := range []int{1, 2, 5} {
			got := Conv2DGEMM(in, w, bias, tc.s, tc.p, tc.relu, workers)
			if tc.p == 0 {
				for j := range want.Data {
					if got.Data[j] != want.Data[j] {
						t.Fatalf("case %d workers %d: elem %d: gemm %v != naive %v (bit-exact contract)",
							i, workers, j, got.Data[j], want.Data[j])
					}
				}
			} else if d := tensor.MaxAbsDiff(got, want); d > 1e-5 {
				t.Fatalf("case %d workers %d: max |diff| = %v", i, workers, d)
			}
		}
	}
}

// TestConv2DGEMMDeterministicAcrossWorkers asserts the static row-panel split
// yields bit-identical output for every worker count.
func TestConv2DGEMMDeterministicAcrossWorkers(t *testing.T) {
	tc := convCase{16, 30, 30, 32, 3, 1, 1, true, true}
	in, w, bias := randConv(tc, 42)
	base := Conv2DGEMM(in, w, bias, tc.s, tc.p, tc.relu, 1)
	for _, workers := range []int{2, 3, 8, 64} {
		got := Conv2DGEMM(in, w, bias, tc.s, tc.p, tc.relu, workers)
		for j := range base.Data {
			if got.Data[j] != base.Data[j] {
				t.Fatalf("workers=%d: elem %d differs: %v vs %v", workers, j, got.Data[j], base.Data[j])
			}
		}
	}
}

// TestIm2colShape spot-checks every strip the image source packs against
// direct indexing, padded taps reading +0: strips that are one contiguous
// run of the input (stride 1 inside an output row), strips that straddle two
// output rows, and strided ones.
func TestIm2colShape(t *testing.T) {
	for _, tc := range []convCase{
		{c1: 2, h: 5, w: 5, f: 3, s: 1, p: 1},
		{c1: 1, h: 20, w: 20, f: 3, s: 1},
		{c1: 2, h: 9, w: 9, f: 3, s: 2, p: 1},
	} {
		in := tensor.New(tc.c1, tc.h, tc.w)
		in.FillSeq(7)
		im := convImage(in, tc.f, tc.s, tc.p)
		k, n := im.tables()
		im.strip = make([]float32, stripLen)
		w2 := (tc.w-tc.f+2*tc.p)/tc.s + 1
		for kb := 0; kb < k; kb += gemmKC {
			kc := min(k-kb, gemmKC)
			for j := 0; j < n; j += 16 {
				cols := min(n-j, 16)
				im.pack(im.strip, kb, kc, j, cols)
				for kk := 0; kk < kc; kk++ {
					c, fy, fx := (kb+kk)/(tc.f*tc.f), (kb+kk)/tc.f%tc.f, (kb+kk)%tc.f
					for jj := 0; jj < cols; jj++ {
						y, x := (j+jj)/w2, (j+jj)%w2
						iy, ix := tc.s*y+fy-tc.p, tc.s*x+fx-tc.p
						want := float32(0)
						if iy >= 0 && iy < tc.h && ix >= 0 && ix < tc.w {
							want = in.At(c, iy, ix)
						}
						if got := im.strip[kk*16+jj]; got != want {
							t.Fatalf("%+v: patch (%d,%d,%d) pixel (%d,%d): got %v want %v", tc, c, fy, fx, y, x, got, want)
						}
					}
				}
			}
		}
	}
}

// TestIm2colReusesScratch asserts the scratch contract: a GemmImage call on a
// reused Image allocates nothing.
func TestIm2colReusesScratch(t *testing.T) {
	in := tensor.New(3, 8, 8)
	in.FillSeq(3)
	im := convImage(in, 3, 1, 0)
	a := make([]float32, 5*27)
	c := make([]float32, 5*36)
	if allocs := testing.AllocsPerRun(10, func() { GemmImage(a, im, c, 5, 1) }); allocs != 0 {
		t.Fatalf("GemmImage on a reused Image: %v allocations per call, want 0", allocs)
	}
}

func BenchmarkConvGEMMvsNaive(b *testing.B) {
	tc := convCase{16, 30, 30, 32, 3, 1, 0, true, true}
	in, w, bias := randConv(tc, 1)
	for _, mode := range []string{"naive", "gemm1", "gemmN"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch mode {
				case "naive":
					conv2DNaive(in, w, bias, tc.s, tc.p, tc.relu)
				case "gemm1":
					Conv2DGEMM(in, w, bias, tc.s, tc.p, tc.relu, 1)
				case "gemmN":
					Conv2DGEMM(in, w, bias, tc.s, tc.p, tc.relu, 0)
				}
			}
		})
	}
}

// BenchmarkGemmParallelCrossover locates the problem size where a multi-worker
// Gemm first beats serial — the measurement behind gemmParallelMinMACs. Shapes
// mirror a folded conv layer (m output channels, n = 14x14 output pixels) with
// the reduction depth k swept so the MAC count crosses the cutoff from below
// and above.
func BenchmarkGemmParallelCrossover(b *testing.B) {
	const m, n = 64, 196
	for _, macExp := range []int{18, 19, 20, 21, 22, 23} {
		k := (1 << macExp) / (m * n)
		if k < 1 {
			k = 1
		}
		a := make([]float32, m*k)
		bb := make([]float32, k*n)
		c := make([]float32, m*n)
		for i := range a {
			a[i] = float32(i%13-6) * 0.5
		}
		for i := range bb {
			bb[i] = float32(i%7-4) * 0.25
		}
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("macs=2^%d/workers=%d", macExp, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Gemm(a, bb, c, m, k, n, workers)
				}
			})
		}
	}
}

// BenchmarkNestedFanout measures the oversubscription cost that motivated
// capping GEMM workers in already-parallel contexts: W concurrent goroutines
// (a RunBatch worker pool) each running a conv, either fanning every call out
// to 4 workers ("free", the pre-fix behavior — pool x 4 goroutines contending
// for the CPUs) or pinning each call serial ("pinned"), which is what
// relay.Execute and the sim GEMM tier now do.
func BenchmarkNestedFanout(b *testing.B) {
	tc := convCase{64, 16, 16, 64, 3, 1, 0, true, true}
	const pool = 4
	ins := make([]*tensor.Tensor, pool)
	ws := make([]*tensor.Tensor, pool)
	bs := make([]*tensor.Tensor, pool)
	for i := range ins {
		ins[i], ws[i], bs[i] = randConv(tc, uint64(i))
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"free", 4}, {"pinned", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for wkr := 0; wkr < pool; wkr++ {
					wg.Add(1)
					go func(wkr int) {
						defer wg.Done()
						Conv2DGEMM(ins[wkr], ws[wkr], bs[wkr], tc.s, tc.p, tc.relu, mode.workers)
					}(wkr)
				}
				wg.Wait()
			}
		})
	}
}

// convImage is the image source of an (f,s,p) convolution over in, padded
// as Conv2DGEMM pads it.
func convImage(in *tensor.Tensor, f, s, p int) *Image {
	if p > 0 {
		in = Pad2D(in, p)
	}
	return &Image{Data: in.Data, C: in.Shape[0], H: in.Shape[1], W: in.Shape[2], F: f, S: s}
}

// im2colGather is the obvious per-element gather: the whole patch matrix the
// image source never builds, the oracle's B operand.
func im2colGather(data []float32, c1, h1, w1, f, s, p int) []float32 {
	h2 := (h1-f+2*p)/s + 1
	w2 := (w1-f+2*p)/s + 1
	out := make([]float32, c1*f*f*h2*w2)
	for c := 0; c < c1; c++ {
		for fy := 0; fy < f; fy++ {
			for fx := 0; fx < f; fx++ {
				for y := 0; y < h2; y++ {
					for x := 0; x < w2; x++ {
						iy, ix := s*y+fy-p, s*x+fx-p
						var v float32
						if iy >= 0 && iy < h1 && ix >= 0 && ix < w1 {
							v = data[(c*h1+iy)*w1+ix]
						}
						out[(((c*f+fy)*f+fx)*h2+y)*w2+x] = v
					}
				}
			}
		}
	}
	return out
}

// checkImageSource requires GemmImage over the (f,s,p) convolution of a
// random [c1,h1,w1] activation to be bit-identical to gemmOracle over
// im2colGather's patches, with AVX on and off, serial and row-split. A and C
// carry gemmOracleCase's NaN, ±Inf, -0 and subnormals; the activation
// carries -0 and subnormals (an Inf there would meet the Inf in A's row 0).
func checkImageSource(t *testing.T, r *rand.Rand, c1, h1, w1, f, s, p, m int) {
	t.Helper()
	in := tensor.New(c1, h1, w1)
	for i := range in.Data {
		switch x := r.IntN(16); {
		case x == 0:
			in.Data[i] = gemmTiny[r.IntN(len(gemmTiny))]
		case x == 1:
			in.Data[i] = float32(math.Copysign(0, -1))
		default:
			in.Data[i] = float32(r.Float32()*4) - 2
		}
	}
	k, n := c1*f*f, ((h1-f+2*p)/s+1)*((w1-f+2*p)/s+1)
	a, _, c0 := gemmOracleCase(r, m, k, n)
	want := append([]float32(nil), c0...)
	gemmOracle(a, im2colGather(in.Data, c1, h1, w1, f, s, p), want, m, k, n)
	for _, avx := range []bool{true, false} {
		for _, workers := range []int{1, 3} {
			got := append([]float32(nil), c0...)
			if !withAVX(avx, func() { GemmImage(a, convImage(in, f, s, p), got, m, workers) }) {
				continue
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("c1=%d h=%d w=%d f=%d s=%d p=%d m=%d avx=%v workers=%d: c[%d] = %#08x, oracle %#08x",
						c1, h1, w1, f, s, p, m, avx, workers, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestIm2colFringesMatchGather drives the image source through its fringe
// cases — taps hanging off both edges (p > 0), a filter nearly as wide as
// the input, the degenerate single-column output, strided gathers — against
// the oracle over the naive gather.
func TestIm2colFringesMatchGather(t *testing.T) {
	cases := []struct {
		name                string
		c1, h1, w1, f, s, p int
	}{
		{"pad-both-edges", 2, 7, 7, 3, 1, 2},
		{"filter-near-width", 1, 6, 6, 5, 1, 2},
		{"filter-equals-width", 1, 5, 5, 5, 1, 0},
		{"pad-exceeds-filter-reach", 1, 4, 4, 3, 1, 3},
		{"strided-fallback", 2, 9, 9, 3, 2, 1},
		{"strided-padded", 1, 8, 8, 5, 3, 2},
	}
	r := rand.New(rand.NewPCG(52, 1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []int{1, 4, 7} {
				checkImageSource(t, r, tc.c1, tc.h1, tc.w1, tc.f, tc.s, tc.p, m)
			}
		})
	}
}

// TestImageSourceMatchesOracle is the property over random convolutions:
// channel counts whose reductions cross the gemmKC block edge, filters up to
// 7, strides up to 3, padding up to 3 and outputs narrower and wider than a
// 16-column strip.
func TestImageSourceMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(52, 2))
	for i := 0; i < 150; i++ {
		f, s, p := 1+r.IntN(7), 1+r.IntN(3), r.IntN(4)
		h, w := max(f-2*p, 1)+r.IntN(24), max(f-2*p, 1)+r.IntN(24)
		checkImageSource(t, r, 1+r.IntN(6), h, w, f, s, p, 1+r.IntN(9))
	}
}

// TestGemmDegenerateWorkers pins the worker-clamp edges: more workers than
// rows, and a single-row matrix, must both produce the serial result exactly.
func TestGemmDegenerateWorkers(t *testing.T) {
	for _, tc := range []struct{ m, k, n, workers int }{
		{3, 17, 9, 8}, // workers > m: clamp to one row per worker
		{1, 17, 9, 4}, // m == 1: serial short-circuit
		{2, 1, 1, 16}, // tiny everything
	} {
		a := make([]float32, tc.m*tc.k)
		b := make([]float32, tc.k*tc.n)
		for i := range a {
			a[i] = float32(i%11-5) * 0.3
		}
		for i := range b {
			b[i] = float32(i%7-3) * 0.25
		}
		want := make([]float32, tc.m*tc.n)
		got := make([]float32, tc.m*tc.n)
		for i := range want {
			want[i] = float32(i % 5)
			got[i] = want[i]
		}
		Gemm(a, b, want, tc.m, tc.k, tc.n, 1)
		Gemm(a, b, got, tc.m, tc.k, tc.n, tc.workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("m=%d k=%d n=%d workers=%d: c[%d] got %v want %v",
					tc.m, tc.k, tc.n, tc.workers, i, got[i], want[i])
			}
		}
	}
}

// gemmOracle is the plain triple loop C += A*B: one output at a time, k
// ascending, each product converted to float32 before it is added (the only
// form the Go spec guarantees is not fused into an FMA). It is the scalar
// oracle the register-accumulated gemmTwin must match bit for bit.
func gemmOracle(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := c[i*n+j]
			for kk := 0; kk < k; kk++ {
				v += float32(a[i*k+kk] * b[kk*n+j])
			}
			c[i*n+j] = v
		}
	}
}

// gemmTiny are the finite values a reordered or fused accumulation would
// round differently near: the smallest and largest subnormals and a tiny
// normal whose products underflow into the subnormal range.
var gemmTiny = []float32{math.Float32frombits(1), -math.Float32frombits(0x007fffff), 1e-20}

// gemmOracleCase builds A[m,k], B[k,n] and C[m,n] in [-2, 2) with subnormals
// sprinkled everywhere and negative zeros everywhere but A's row 0 and B's
// column 0. NaN and the infinities are placed so that no output sum meets two
// NaNs: IEEE 754 leaves open which NaN operand a NaN+NaN add returns (amd64
// returns the destination register's, which is the compiler's choice), so
// such a sum would test register allocation, not the kernel. A's row 0 gets
// one NaN or ±Inf, B's column 0 one ±Inf (an Inf meeting a -0 makes a NaN,
// hence no -0 in that row and column), and C one NaN or ±Inf off both.
func gemmOracleCase(r *rand.Rand, m, k, n int) (a, b, c []float32) {
	fill := func(rows, cols int, noNegZero func(row, col int) bool) []float32 {
		out := make([]float32, rows*cols)
		for i := range out {
			switch x := r.IntN(16); {
			case x == 0:
				out[i] = gemmTiny[r.IntN(len(gemmTiny))]
			case x == 1 && !noNegZero(i/cols, i%cols):
				out[i] = float32(math.Copysign(0, -1))
			default:
				// The conversion keeps arm64 from fusing the scale into the
				// subtraction (make fma-check disassembles the tests too).
				out[i] = float32(r.Float32()*4) - 2
			}
		}
		return out
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	a = fill(m, k, func(row, _ int) bool { return row == 0 })
	b = fill(k, n, func(_, col int) bool { return col == 0 })
	c = fill(m, n, func(int, int) bool { return false })
	a[r.IntN(k)] = []float32{nan, inf, -inf}[r.IntN(3)]
	b[r.IntN(k)*n] = []float32{inf, -inf}[r.IntN(2)]
	if m > 1 && n > 1 {
		c[m*n-1] = []float32{nan, inf, -inf}[r.IntN(3)]
	}
	return a, b, c
}

// cpuHasAVX is useAVX as the package set it from the CPU.
var cpuHasAVX = useAVX

// withAVX runs f with useAVX forced to on, restoring it after; it reports
// false, running nothing, when AVX is asked for and the CPU has none.
func withAVX(on bool, f func()) bool {
	if on && !cpuHasAVX {
		return false
	}
	defer func() { useAVX = cpuHasAVX }()
	useAVX = on
	f()
	return true
}

// TestGemmRowsBitIdenticalToScalarOracle pins both Gemm paths — the AVX
// kernels (gemm4x16 tiles and gemmEdge fringe blocks), and gemmTwin alone —
// to the scalar oracle by math.Float32bits across the unroll remainders (k
// mod 4), the gemmKC block edges, every (m mod 4, n mod 16) pair, each
// fringe alone (m < 4, n < 16) and beside full tiles, and serial and
// row-split runs (whose panels start off a multiple of 4), on inputs that
// carry NaN, ±Inf, -0 and subnormals.
func TestGemmRowsBitIdenticalToScalarOracle(t *testing.T) {
	ks := []int{1, 2, 3, 4, 5, 7, gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 3}
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8}
	ns := []int{49}
	for r := 0; r < 16; r++ {
		if r > 0 {
			ns = append(ns, r)
		}
		ns = append(ns, 16+r)
	}
	for _, avx := range []bool{true, false} {
		r := rand.New(rand.NewPCG(38, 4))
		ran := withAVX(avx, func() {
			for _, k := range ks {
				for _, m := range ms {
					for _, n := range ns {
						a, b, c0 := gemmOracleCase(r, m, k, n)
						want := append([]float32(nil), c0...)
						gemmOracle(a, b, want, m, k, n)
						for _, workers := range []int{1, 3} {
							got := append([]float32(nil), c0...)
							Gemm(a, b, got, m, k, n, workers)
							for i := range want {
								if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
									t.Fatalf("avx=%v m=%d k=%d n=%d workers=%d: c[%d] = %v (%#08x), oracle %v (%#08x)",
										avx, m, k, n, workers, i, got[i], math.Float32bits(got[i]),
										want[i], math.Float32bits(want[i]))
								}
							}
						}
					}
				}
			}
		})
		if !ran {
			t.Log("CPU has no AVX: the AVX half skipped, portable gemmTwin checked alone")
		}
	}
}

// TestGemmShortSlicePanics pins the AVX path's memory safety: a Gemm whose
// A, B or C slice is one element short must panic in Go (gemmPanel indexes
// the last element each gemm4x16 or gemmEdge call reaches) rather than let
// the assembly read or write past the slice. m = 5 puts A's and C's last
// row, and n = 17 B's and C's last column, in fringe blocks only; 3x9 has no
// full tile at all.
func TestGemmShortSlicePanics(t *testing.T) {
	for _, sh := range []struct{ m, k, n int }{{4, 8, 16}, {5, 8, 16}, {4, 8, 17}, {5, 8, 17}, {3, 8, 9}} {
		m, k, n := sh.m, sh.k, sh.n
		for _, avx := range []bool{true, false} {
			for _, short := range []string{"a", "b", "c"} {
				size := func(name string, l int) int {
					if name == short {
						return l - 1
					}
					return l
				}
				a := make([]float32, size("a", m*k))
				b := make([]float32, size("b", k*n))
				c := make([]float32, size("c", m*n))
				var recovered any
				ran := withAVX(avx, func() {
					defer func() { recovered = recover() }()
					Gemm(a, b, c, m, k, n, 1)
				})
				if ran && recovered == nil {
					t.Errorf("avx=%v %dx%dx%d: Gemm with %s one element short did not panic", avx, m, k, n, short)
				}
			}
		}
	}
}

// imageShape is an image-source convolution at a deployed shape: m output
// channels over the F×F, stride-S gather of a [C,H,W] activation (already
// padded, as the folded networks' pad kernels leave it).
type imageShape struct {
	name          string
	m             int
	c, h, w, f, s int
}

// deployedImages are the convolutions the deployed networks run on the image
// source: ResNet-18's 7x7 stem, a conv2_x, the stride-2 3x3 and 1x1
// projection that open conv3_x, a conv5_x, LeNet-5's two convs and
// MobileNetV1's conv_1.
var deployedImages = []imageShape{
	{"resnet18/conv1", 64, 3, 230, 230, 7, 2},
	{"resnet18/conv2_x", 64, 64, 58, 58, 3, 1},
	{"resnet18/conv3_x-first", 128, 64, 58, 58, 3, 2},
	{"resnet18/conv3_x-down", 128, 64, 56, 56, 1, 2},
	{"resnet18/conv5_x", 512, 512, 9, 9, 3, 1},
	{"lenet/conv1", 6, 1, 28, 28, 3, 1},
	{"lenet/conv2", 16, 6, 13, 13, 3, 1},
	{"mobilenet/conv_1", 32, 3, 226, 226, 3, 2},
}

// operands builds the image and A and C for one shape, and returns its MACs.
func (sh imageShape) operands(r *rand.Rand) (im *Image, a, c []float32, macs int64) {
	im = &Image{Data: make([]float32, sh.c*sh.h*sh.w), C: sh.c, H: sh.h, W: sh.w, F: sh.f, S: sh.s}
	k, n := sh.c*sh.f*sh.f, ((sh.h-sh.f)/sh.s+1)*((sh.w-sh.f)/sh.s+1)
	a, c = make([]float32, sh.m*k), make([]float32, sh.m*n)
	for i := range im.Data {
		im.Data[i] = float32(r.Float32()) - 0.5
	}
	for i := range a {
		a[i] = float32(r.Float32()) - 0.5
	}
	return im, a, c, int64(sh.m) * int64(k) * int64(n)
}

// TestGemmRowsIdleWithAVX pins which products leave the AVX kernels: none of
// the GEMM shapes the folded MobileNetV1 and ResNet-18/34 and LeNet-5 deploy
// with a fringe (the rest are whole 4x16 tiles), nor any image-source
// convolution they deploy, runs a multiply-accumulate on gemmTwin when AVX
// is on, serial or row-split, and with AVX off gemmTwin runs all of them.
func TestGemmRowsIdleWithAVX(t *testing.T) {
	// m output channels x k reduction x n output pixels.
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"mobilenet/pw256to512", 512, 256, 196},
		{"mobilenet/pw512", 512, 512, 196},
		{"mobilenet/pw512to1024", 1024, 512, 49},
		{"mobilenet/pw1024", 1024, 1024, 49},
		{"resnet18/conv4_x-down", 256, 128, 196},
		{"resnet18/conv4_x-first", 256, 1152, 196},
		{"resnet18/conv4_x", 256, 2304, 196},
		{"resnet18/conv5_x-down", 512, 256, 49},
		{"resnet18/conv5_x-first", 512, 2304, 49},
		{"resnet18/conv5_x", 512, 4608, 49},
		{"lenet/conv1", 6, 9, 676},
		{"lenet/conv2", 16, 54, 121},
	}
	var macs atomic.Int64
	gemmTwinMACs = &macs
	defer func() { gemmTwinMACs = nil }()
	check := func(name string, all int64, gemm func(workers int)) {
		for _, run := range []struct {
			avx     bool
			workers int
			want    int64
		}{{true, 1, 0}, {true, 3, 0}, {false, 1, all}} {
			macs.Store(0)
			if !withAVX(run.avx, func() { gemm(run.workers) }) {
				continue
			}
			if got := macs.Load(); got != run.want {
				t.Errorf("%s avx=%v workers=%d: gemmTwin ran %d MACs, want %d", name, run.avx, run.workers, got, run.want)
			}
		}
	}
	for _, sh := range shapes {
		a := make([]float32, sh.m*sh.k)
		b := make([]float32, sh.k*sh.n)
		c := make([]float32, sh.m*sh.n)
		check(sh.name, int64(sh.m)*int64(sh.k)*int64(sh.n), func(workers int) { Gemm(a, b, c, sh.m, sh.k, sh.n, workers) })
	}
	r := rand.New(rand.NewPCG(52, 3))
	for _, sh := range deployedImages {
		im, a, c, all := sh.operands(r)
		check("image/"+sh.name, all, func(workers int) { GemmImage(a, im, c, sh.m, workers) })
	}
}

// BenchmarkGemmDeployedShapes times the serial kernel at the GEMM shapes the
// folded networks deploy (m output channels x k reduction x n output pixels):
// ResNet-18's 3x3 convs at each stage and its 7x7 stem, MobileNetV1's widest
// and narrowest pointwise layers and its deepest (pw1024, n = 49: one
// fringe column per 48), and LeNet-5's two convs (m = 6 rows, n = 676 and
// 121: row and column fringes), with B a ready [k, n] matrix; then the
// image-source convolutions they deploy (deployedImages), whose B strips are
// gathered from the activation inside the timing. Each shape runs twice, on
// the AVX kernels ("avx") and on the portable gemmTwin alone ("portable"),
// and reports GFLOP/s (2 FLOPs per MAC); run it with -cpu 1 to size the
// microkernels without worker fan-out.
func BenchmarkGemmDeployedShapes(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"resnet18/conv2_x", 64, 576, 3136},
		{"resnet18/conv3_x", 128, 1152, 784},
		{"resnet18/conv4_x", 256, 2304, 196},
		{"resnet18/conv5_x", 512, 4608, 49},
		{"resnet18/stem7x7", 64, 147, 12544},
		{"mobilenet/pw512", 512, 512, 196},
		{"mobilenet/pw128", 128, 128, 3136},
		{"mobilenet/pw1024", 1024, 1024, 49},
		{"lenet/conv1", 6, 9, 676},
		{"lenet/conv2", 16, 54, 121},
	}
	kernels := []struct {
		name string
		avx  bool
	}{{"avx", true}, {"portable", false}}
	bench := func(name string, macs int64, gemm func()) {
		for _, kernel := range kernels {
			b.Run(name+"/"+kernel.name, func(b *testing.B) {
				ran := withAVX(kernel.avx, func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						gemm()
					}
				})
				if !ran {
					b.Skip("CPU has no AVX")
				}
				b.ReportMetric(2*float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
	for _, sh := range shapes {
		r := rand.New(rand.NewPCG(1, 2))
		a := make([]float32, sh.m*sh.k)
		bb := make([]float32, sh.k*sh.n)
		c := make([]float32, sh.m*sh.n)
		for i := range a {
			a[i] = float32(r.Float32()) - 0.5
		}
		for i := range bb {
			bb[i] = float32(r.Float32()) - 0.5
		}
		bench(sh.name, int64(sh.m)*int64(sh.k)*int64(sh.n), func() { Gemm(a, bb, c, sh.m, sh.k, sh.n, 1) })
	}
	for _, sh := range deployedImages {
		im, a, c, macs := sh.operands(rand.New(rand.NewPCG(1, 2)))
		bench("image/"+sh.name, macs, func() { GemmImage(a, im, c, sh.m, 1) })
	}
}
