package cpuref

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
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

// TestIm2colShape spot-checks the patch matrix against direct indexing.
func TestIm2colShape(t *testing.T) {
	tc := convCase{c1: 2, h: 5, w: 5, f: 3, s: 1, p: 1}
	in := tensor.New(tc.c1, tc.h, tc.w)
	in.FillSeq(7)
	h2 := (tc.h-tc.f+2*tc.p)/tc.s + 1
	w2 := (tc.w-tc.f+2*tc.p)/tc.s + 1
	m := Im2col(in, tc.f, tc.s, tc.p, nil)
	if len(m) != tc.c1*tc.f*tc.f*h2*w2 {
		t.Fatalf("im2col size %d", len(m))
	}
	for c := 0; c < tc.c1; c++ {
		for fy := 0; fy < tc.f; fy++ {
			for fx := 0; fx < tc.f; fx++ {
				for y := 0; y < h2; y++ {
					for x := 0; x < w2; x++ {
						iy, ix := tc.s*y+fy-tc.p, tc.s*x+fx-tc.p
						want := float32(0)
						if iy >= 0 && iy < tc.h && ix >= 0 && ix < tc.w {
							want = in.At(c, iy, ix)
						}
						got := m[((c*tc.f+fy)*tc.f+fx)*h2*w2+y*w2+x]
						if got != want {
							t.Fatalf("patch (%d,%d,%d) pixel (%d,%d): got %v want %v", c, fy, fx, y, x, got, want)
						}
					}
				}
			}
		}
	}
}

// TestIm2colReusesScratch asserts the dst-threading contract.
func TestIm2colReusesScratch(t *testing.T) {
	in := tensor.New(3, 8, 8)
	in.FillSeq(3)
	scratch := Im2col(in, 3, 1, 0, nil)
	again := Im2col(in, 3, 1, 0, scratch)
	if &again[0] != &scratch[0] {
		t.Fatal("Im2col allocated despite sufficient scratch")
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

// im2colGather is the obvious per-element gather — the oracle for the
// stride-1 fast path's fringe arithmetic.
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

// TestIm2colFringesMatchGather drives the stride-1 fast path through its
// fringe cases — taps hanging off both edges (p > 0), a filter nearly as wide
// as the input, the degenerate single-column output, and the s > 1 fallback —
// and diffs every element against the naive gather.
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := make([]float32, tc.c1*tc.h1*tc.w1)
			for i := range data {
				data[i] = float32(i%19-8) * 0.5
			}
			got := Im2colSlice(data, tc.c1, tc.h1, tc.w1, tc.f, tc.s, tc.p, nil)
			want := im2colGather(data, tc.c1, tc.h1, tc.w1, tc.f, tc.s, tc.p)
			if len(got) != len(want) {
				t.Fatalf("length: got %d want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("patch[%d]: got %v want %v", i, got[i], want[i])
				}
			}
		})
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
// oracle the register-accumulated gemmRows must match bit for bit.
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

// TestGemmRowsBitIdenticalToScalarOracle pins the register-accumulated
// microkernel to the scalar oracle by math.Float32bits across the unroll
// remainders (k mod 4), the gemmKC block edges, odd and even m and n
// (including 1) and serial and row-split runs, on inputs that carry NaN, ±Inf,
// -0 and subnormals.
func TestGemmRowsBitIdenticalToScalarOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(38, 4))
	ks := []int{1, 2, 3, 4, 5, 7, gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 3}
	for _, k := range ks {
		for _, m := range []int{1, 2, 7} {
			for _, n := range []int{1, 2, 9, 16} {
				a, b, c0 := gemmOracleCase(r, m, k, n)
				want := append([]float32(nil), c0...)
				gemmOracle(a, b, want, m, k, n)
				for _, workers := range []int{1, 3} {
					got := append([]float32(nil), c0...)
					Gemm(a, b, got, m, k, n, workers)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("m=%d k=%d n=%d workers=%d: c[%d] = %v (%#08x), oracle %v (%#08x)",
								m, k, n, workers, i, got[i], math.Float32bits(got[i]),
								want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// BenchmarkGemmDeployedShapes times the serial kernel at the GEMM shapes the
// folded networks deploy (m output channels x k reduction x n output pixels):
// ResNet-18's 3x3 convs at each stage and its 7x7 stem, and MobileNetV1's
// widest and narrowest pointwise layers. It reports GFLOP/s (2 FLOPs per MAC);
// run it with -cpu 1 to size the microkernel without worker fan-out.
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
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(a, bb, c, sh.m, sh.k, sh.n, 1)
			}
			flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
