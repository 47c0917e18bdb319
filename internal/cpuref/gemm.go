package cpuref

// im2col + cache-blocked GEMM convolution — the host-side lowering TVM uses
// for its CPU conv schedules. The direct 6-deep loop nest in ops.go touches
// the input with stride f*f per output pixel and re-reads the filter for
// every (y,x); lowering to matrix multiply turns the inner product into
// sequential streams over two dense panels, which is where the CPU reference
// (the degradation ladder's last rung and every golden-model check) gets its
// throughput.
//
// Numerical contract: for a given output element the reduction runs in
// ascending k = (c*F + fy)*F + fx order, starting from the bias — exactly the
// order of the direct loops — so the GEMM path is bit-compatible with the
// naive oracle on unpadded convolutions and differs on padded ones only by
// adding exact zeros.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// gemmKC is the reduction-axis block: a KC x W2H2 panel of the im2col matrix
// stays resident in L1/L2 while a row panel of weights streams over it.
const gemmKC = 240

// gemmParallelMinMACs is Conv2DGEMM's serial cutoff, in multiply-accumulates
// (c2*k*n; one MAC = two FLOPs, so this is ~2 MiMAC ≈ 4 MFLOP). Measured with
// BenchmarkGemmParallelCrossover (m=64, n=196, k swept; workers 1 vs 4) on a
// shared 2-vCPU Xeon. The AVX tile kernel, about 5x the scalar one, moved the
// crossover up: in six sweeps with the second vCPU idle the split took
// 1.3–1.5x the serial time at 2^18 MACs and 1.05–1.35x at 2^19, then
// 0.73–0.96x at 2^20, 0.69–1.01x at 2^21 and 0.58–0.85x from 2^22 (the scalar
// kernel's split already won from 2^17). With the second vCPU busy the scalar
// kernel's split lost or tied up to 2^21, and a faster serial kernel only
// shrinks what a split can save. So the guard keeps layers under 2^21
// serial, and lets anything at or above it fan out.
const gemmParallelMinMACs = 1 << 21

// im2col unfolds a [C1,H1,W1] input into the [C1*F*F, H2*W2] patch matrix of
// a (f,s,p) convolution: row k = (c*F+fy)*F+fx holds input element
// in[c, s*y+fy-p, s*x+fx-p] for each output pixel n = y*W2+x (zero where the
// tap falls outside the input). The result is written into dst, which is
// grown as needed and returned, so callers can reuse one scratch buffer
// across images.
func im2col(in *tensor.Tensor, f, s, p int, dst []float32) []float32 {
	return Im2colSlice(in.Data, in.Shape[0], in.Shape[1], in.Shape[2], f, s, p, dst)
}

// Im2colSlice is im2col over a raw [c1*h1*w1] row-major slice, for callers
// (the sim's GEMM lowering) that hold flat buffers rather than tensors.
func Im2colSlice(data []float32, c1, h1, w1, f, s, p int, dst []float32) []float32 {
	h2 := (h1-f+2*p)/s + 1
	w2 := (w1-f+2*p)/s + 1
	n := h2 * w2
	rows := c1 * f * f
	if cap(dst) < rows*n {
		dst = make([]float32, rows*n)
	}
	dst = dst[:rows*n]
	for c := 0; c < c1; c++ {
		plane := data[c*h1*w1 : (c+1)*h1*w1]
		for fy := 0; fy < f; fy++ {
			for fx := 0; fx < f; fx++ {
				row := dst[((c*f+fy)*f+fx)*n : ((c*f+fy)*f+fx+1)*n]
				for y := 0; y < h2; y++ {
					iy := s*y + fy - p
					out := row[y*w2 : (y+1)*w2]
					if iy < 0 || iy >= h1 {
						clear(out)
						continue
					}
					src := plane[iy*w1 : (iy+1)*w1]
					if s == 1 {
						// Stride-1 fast path: the w2 taps are a contiguous
						// window of the input row, save the padded fringe.
						x0 := 0
						for ; x0 < w2 && x0+fx-p < 0; x0++ {
							out[x0] = 0
						}
						x1 := w2
						for ; x1 > x0 && x1-1+fx-p >= w1; x1-- {
							out[x1-1] = 0
						}
						copy(out[x0:x1], src[x0+fx-p:])
						continue
					}
					for x := 0; x < w2; x++ {
						ix := s*x + fx - p
						if ix < 0 || ix >= w1 {
							out[x] = 0
						} else {
							out[x] = src[ix]
						}
					}
				}
			}
		}
	}
	return dst
}

// gemmPanel computes rows [m0,m1) of C[M,N] += A[M,K] * B[K,N]. With AVX
// every block runs on an AVX kernel: 4-row x 16-column tiles on gemm4x16,
// and the fringe blocks (the last (m1-m0) mod 4 rows, the last n mod 16
// columns, and every block of a panel under 4 rows or a product under 16
// columns) on gemmEdge. Without AVX gemmRows does it all. They produce the
// same bits, so which ran is invisible in the output.
//
// Loop order: per gemmKC block of k, column strips outside and 4-row blocks
// inside, so one 16-wide strip of the B panel (gemmKC x 16 floats, 15 KiB)
// stays in L1 while every row block streams its A rows past it. With row
// blocks outside, each block would re-read the whole B panel from L2.
func gemmPanel(a, b, c []float32, k, n, m0, m1 int) {
	if !useAVX {
		gemmRows(a, b, c, k, n, m0, m1)
		return
	}
	for kb := 0; kb < k; kb += gemmKC {
		kEnd := min(kb+gemmKC, k)
		for j := 0; j < n; j += 16 {
			cols := min(n-j, 16)
			for m := m0; m < m1; m += 4 {
				rows := min(m1-m, 4)
				// The last element each pointer reaches: a short slice
				// panics here instead of being read or written past its end.
				_ = a[(m+rows-1)*k+kEnd-1]
				_ = b[(kEnd-1)*n+j+cols-1]
				_ = c[(m+rows-1)*n+j+cols-1]
				if rows == 4 && cols == 16 {
					gemm4x16(&a[m*k+kb], &b[kb*n+j], &c[m*n+j], kEnd-kb, k, n, n)
				} else {
					gemmEdge(&a[m*k+kb], &b[kb*n+j], &c[m*n+j], kEnd-kb, k, n, n, rows, cols)
				}
			}
		}
	}
}

// gemmRowsMACs, when a test sets it, counts the multiply-accumulates
// gemmRows runs, so a test can pin which products leave the AVX kernels.
var gemmRowsMACs *atomic.Int64

// gemmRows computes rows [m0,m1) of C[M,N] += A[M,K] * B[K,N], with C
// pre-initialized (bias) and accumulated in ascending-k order. The k loop is
// blocked so each B panel is streamed once per row while hot in cache. It
// is the portable twin of the AVX kernels: the whole product where AVX is
// absent (every non-amd64 build, and CPUs without AVX) and the path they are
// tested against.
//
// Within a row, four k-steps share one pass over the C row: each output
// element is loaded once, takes four products in a register and is stored
// once, instead of a load-add-store per k (the accumulator round trip the
// thesis removes from its kernels in §4). That took the scalar kernel from
// 3.3–4.3 to 5.9–7.0 GFLOP/s at the deployed shapes on one core of a shared
// 2-vCPU Xeon; unrolling by 8 and 4x4 register blocks gained nothing more in
// scalar Go, whose limit is one multiply and one add per cycle.
//
// Every product is converted to float32 explicitly before it is added: the
// Go spec lets a compiler fuse `x*y + z` into an FMA (arm64 does, even
// through a temporary) and guarantees the rounding only at an explicit
// conversion. Each step therefore rounds exactly as the sim interpreter
// does, and `make fma-check` proves no fused instruction is emitted.
func gemmRows(a, b, c []float32, k, n, m0, m1 int) {
	if gemmRowsMACs != nil {
		gemmRowsMACs.Add(int64(m1-m0) * int64(k) * int64(n))
	}
	for kb := 0; kb < k; kb += gemmKC {
		kEnd := min(kb+gemmKC, k)
		for m := m0; m < m1; m++ {
			arow := a[m*k : (m+1)*k]
			crow := c[m*n : (m+1)*n]
			kk := kb
			for ; kk+4 <= kEnd; kk += 4 {
				x0, x1, x2, x3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
				b0 := b[kk*n : (kk+1)*n]
				b1 := b[(kk+1)*n : (kk+2)*n][:len(b0)]
				b2 := b[(kk+2)*n : (kk+3)*n][:len(b0)]
				b3 := b[(kk+3)*n : (kk+4)*n][:len(b0)]
				cr := crow[:len(b0)]
				for j := range b0 {
					v := cr[j]
					v += float32(x0 * b0[j])
					v += float32(x1 * b1[j])
					v += float32(x2 * b2[j])
					v += float32(x3 * b3[j])
					cr[j] = v
				}
			}
			for ; kk < kEnd; kk++ {
				x := arow[kk]
				brow := b[kk*n : (kk+1)*n]
				cr := crow[:len(brow)]
				for j, bv := range brow {
					cr[j] += float32(x * bv)
				}
			}
		}
	}
}

// Gemm computes C += A*B for row-major A[M,K], B[K,N] into C[M,N], splitting
// the M axis into contiguous row panels across worker goroutines. Each output
// element is owned by exactly one worker and accumulated in ascending-k
// order, so the result is deterministic for every worker count.
func Gemm(a, b, c []float32, m, k, n, workers int) {
	if workers <= 1 || m < 2 {
		gemmPanel(a, b, c, k, n, 0, m)
		return
	}
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		m0 := m * w / workers
		m1 := m * (w + 1) / workers
		if m0 == m1 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			gemmPanel(a, b, c, k, n, m0, m1)
		}()
	}
	wg.Wait()
}

// Conv2DGEMM is Conv2D lowered to im2col + blocked GEMM with the given
// worker count (<=0 selects GOMAXPROCS, capped so tiny layers stay serial).
// in: [C1,H1,W1]; w: [C2,C1,F,F] (row-major, so w.Data is already the
// [C2, C1*F*F] weight matrix); bias: [C2] or nil.
func Conv2DGEMM(in, w, bias *tensor.Tensor, s, p int, relu bool, workers int) *tensor.Tensor {
	c1, h1, w1 := in.Shape[0], in.Shape[1], in.Shape[2]
	c2, f := w.Shape[0], w.Shape[2]
	if w.Shape[1] != c1 {
		panic("cpuref: conv weights/input channel mismatch")
	}
	h2 := (h1-f+2*p)/s + 1
	w2 := (w1-f+2*p)/s + 1
	n := h2 * w2
	k := c1 * f * f
	out := tensor.New(c2, h2, w2)
	if bias != nil {
		for m := 0; m < c2; m++ {
			row := out.Data[m*n : (m+1)*n]
			bv := bias.At(m)
			for j := range row {
				row[j] = bv
			}
		}
	}
	patches := im2col(in, f, s, p, nil)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if int64(c2)*int64(k)*int64(n) < gemmParallelMinMACs {
		workers = 1
	}
	Gemm(w.Data, patches, out.Data, c2, k, n, workers)
	if relu {
		for i, v := range out.Data {
			if v < 0 {
				out.Data[i] = 0
			}
		}
	}
	return out
}
