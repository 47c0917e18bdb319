package cpuref

// Implicit-GEMM convolution on a cache-blocked GEMM — the host-side lowering
// TVM uses for its CPU conv schedules. The direct 6-deep loop nest in ops.go
// touches the input with stride f*f per output pixel and re-reads the filter
// for every (y,x); as a matrix multiply the inner product becomes a stream of
// A's rows past one small B strip held in L1, which is where the CPU
// reference (the degradation ladder's last rung and every golden-model
// check) gets its throughput. The [C1·F·F, H2·W2] patch matrix is never
// built: each strip of it is gathered from the input just before A's row
// blocks run over it, as the thesis kernels stream input tiles inside the
// reduction loop (§4).
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

// gemmKC is the reduction-axis block: a KC x 16 strip of B (15 KiB) stays
// resident in L1 while every row block of A streams past it.
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

// Image is GemmImage's B source: the [C·F·F, H2·W2] patch matrix of a
// stride-S, F×F convolution over the [C,H,W] activation Data,
// B[(c·F+fy)·F+fx, y·W2+x] = Data[c·H·W + (S·y+fy)·W + S·x+fx], gathered one
// strip at a time and never built. Its offset tables and strip are scratch:
// a caller that reuses one Image allocates nothing per call.
type Image struct {
	Data          []float32
	C, H, W, F, S int

	built  [5]int // the geometry the tables were built for
	rowOff []int  // rowOff[k] = c·H·W + fy·W + fx
	colOff []int  // colOff[n] = S·(y·W + x)
	strip  []float32
}

// stripLen holds gemmKC rows of 16 and a 16-float tail for pack's spill.
const stripLen = gemmKC*16 + 16

// tables rebuilds the offset tables if the geometry changed, and returns B's
// k and n extents.
func (im *Image) tables() (k, n int) {
	f, s, w := im.F, im.S, im.W
	if g := [5]int{im.C, im.H, w, f, s}; g != im.built {
		im.built = g
		w2 := (w-f)/s + 1
		im.rowOff, im.colOff = im.rowOff[:0], im.colOff[:0]
		for k := range im.C * f * f {
			im.rowOff = append(im.rowOff, (k/(f*f)*im.H+k/f%f)*w+k%f)
		}
		for n := range ((im.H-f)/s + 1) * w2 {
			im.colOff = append(im.colOff, s*(n/w2*w+n%w2))
		}
	}
	return len(im.rowOff), len(im.colOff)
}

// pack gathers B[kb:kb+kc, j:j+cols] into strip at row stride 16. The
// columns split into runs of consecutive offsets (at stride 1, the stretches
// inside one output row). Up to four runs move as one 64-byte block each, in
// column order, each block's spill past its run overwritten by the next
// block or the next row (the last row's by the strip's tail); the
// activation must extend 16 floats past the last run's start. Other strips,
// the strided ones above all, move element by element.
func (im *Image) pack(strip []float32, kb, kc, j, cols int) {
	ro, co := im.rowOff[kb:kb+kc], im.colOff[j:j+cols]
	var runs, from [4]int // each run's first strip column and its offset
	nr := 0
	for jj := range co {
		if jj == 0 || co[jj] != co[jj-1]+1 {
			if nr == len(runs) {
				nr = 0
				break
			}
			runs[nr], from[nr] = jj, co[jj]
			nr++
		}
	}
	if nr > 0 && ro[kc-1]+from[nr-1]+16 <= len(im.Data) {
		data := im.Data
		for kk, o := range ro {
			row := strip[kk*16 : kk*16+32]
			for r, at := range runs[:nr] {
				v := *(*[16]float32)(data[o+from[r]:])
				*(*[16]float32)(row[at:]) = v
			}
		}
		return
	}
	for kk, o := range ro {
		dst, src := strip[kk*16:kk*16+cols], im.Data[o:]
		for jj, x := range co[:len(dst)] {
			dst[jj] = src[x]
		}
	}
}

// gemmPanel computes rows [m0,m1) of C[M,N] += A[M,K] * B[K,N], where B is
// the row-major matrix b read in place at row stride n or, when img is set,
// img's patch matrix packed one strip at a time into strip (allocated here
// when nil). With AVX every 4x16 block of either runs on gemm4x16 and every
// fringe block (the last (m1-m0) mod 4 rows and n mod 16 columns) on
// gemmEdge; without it gemmTwin runs them all. They produce the same bits,
// so which ran is invisible in the output.
//
// Loop order: per gemmKC block of k, column strips outside and 4-row blocks
// inside, so one 16-wide strip of B (gemmKC x 16 floats, 15 KiB) stays in L1
// while every row block streams its A rows past it. With row blocks outside,
// each block would re-read the whole B panel from L2.
func gemmPanel(a, b []float32, img *Image, strip, c []float32, k, n, m0, m1 int) {
	if img != nil && strip == nil {
		strip = make([]float32, stripLen)
	}
	// Without AVX a plain B's strips are whole rows: gemmTwin has no width
	// limit, and a long row amortizes its per-row set-up.
	width := 16
	if !useAVX && img == nil {
		width = n
	}
	for kb := 0; kb < k; kb += gemmKC {
		kc := min(k-kb, gemmKC)
		for j := 0; j < n; j += width {
			cols := min(n-j, width)
			bs, ldb := strip, 16
			if img != nil {
				img.pack(strip, kb, kc, j, cols)
			} else {
				bs, ldb = b[kb*n+j:], n
			}
			for m := m0; m < m1; m += 4 {
				rows, as, cs := min(m1-m, 4), a[m*k+kb:], c[m*n+j:]
				if !useAVX {
					gemmTwin(as, bs, cs, kc, k, ldb, n, rows, cols)
					continue
				}
				// The last element each pointer reaches: a short slice
				// panics here instead of being read or written past its end.
				_ = as[(rows-1)*k+kc-1]
				_ = bs[(kc-1)*ldb+cols-1]
				_ = cs[(rows-1)*n+cols-1]
				if rows == 4 && cols == 16 {
					gemm4x16(&as[0], &bs[0], &cs[0], kc, k, ldb, n)
				} else {
					gemmEdge(&as[0], &bs[0], &cs[0], kc, k, ldb, n, rows, cols)
				}
			}
		}
	}
}

// gemmTwinMACs, when a test sets it, counts the multiply-accumulates
// gemmTwin runs, so a test can pin which products leave the AVX kernels.
var gemmTwinMACs *atomic.Int64

// gemmTwin is the portable twin of the AVX kernels, with gemmEdge's
// contract but any column count: C[0:rows, 0:cols] += A[0:rows, 0:kc] *
// B[0:kc, 0:cols] for 1 <= rows <= 4, accumulated in ascending-k order from
// C's value. It runs every block where
// AVX is absent (every non-amd64 build, and CPUs without AVX) and is the path
// they are tested against.
//
// Within a row, four k-steps share one pass over the C row: each output
// element is loaded once, takes four products in a register and is stored
// once, instead of a load-add-store per k (the accumulator round trip the
// thesis removes from its kernels in §4).
//
// Every product is converted to float32 explicitly before it is added: the
// Go spec lets a compiler fuse `x*y + z` into an FMA (arm64 does, even
// through a temporary) and guarantees the rounding only at an explicit
// conversion. Each step therefore rounds exactly as the sim interpreter
// does, and `make fma-check` proves no fused instruction is emitted.
func gemmTwin(a, b, c []float32, kc, lda, ldb, ldc, rows, cols int) {
	if gemmTwinMACs != nil {
		gemmTwinMACs.Add(int64(rows) * int64(kc) * int64(cols))
	}
	for r := 0; r < rows; r++ {
		arow := a[r*lda : r*lda+kc]
		crow := c[r*ldc : r*ldc+cols]
		kk := 0
		for ; kk+4 <= kc; kk += 4 {
			x0, x1, x2, x3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			b0 := b[kk*ldb : kk*ldb+cols]
			b1 := b[(kk+1)*ldb:][:len(b0)]
			b2 := b[(kk+2)*ldb:][:len(b0)]
			b3 := b[(kk+3)*ldb:][:len(b0)]
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
		for ; kk < kc; kk++ {
			x := arow[kk]
			brow := b[kk*ldb : kk*ldb+cols]
			cr := crow[:len(brow)]
			for j, bv := range brow {
				cr[j] += float32(x * bv)
			}
		}
	}
}

// Gemm computes C += A*B for row-major A[M,K], B[K,N] into C[M,N], reading B
// in place, split into contiguous row panels across worker goroutines. Each
// output element is owned by exactly one worker and accumulated in
// ascending-k order, so the result is deterministic for every worker count.
func Gemm(a, b, c []float32, m, k, n, workers int) {
	gemm(a, b, nil, c, m, k, n, workers)
}

// GemmImage is Gemm with B the patch matrix of b: C[M, H2·W2] +=
// A[M, C·F·F] * B. Each worker gathers its own strips, the first into b's.
func GemmImage(a []float32, b *Image, c []float32, m, workers int) {
	k, n := b.tables()
	if b.strip == nil {
		b.strip = make([]float32, stripLen)
	}
	gemm(a, nil, b, c, m, k, n, workers)
}

func gemm(a, b []float32, img *Image, c []float32, m, k, n, workers int) {
	var strip []float32
	if img != nil {
		strip = img.strip
	}
	if workers <= 1 || m < 2 {
		gemmPanel(a, b, img, strip, c, k, n, 0, m)
		return
	}
	workers = min(workers, m)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		m0 := m * w / workers
		m1 := m * (w + 1) / workers
		if m0 == m1 {
			continue
		}
		wg.Add(1)
		go func(strip []float32) {
			defer wg.Done()
			gemmPanel(a, b, img, strip, c, k, n, m0, m1)
		}(strip)
		strip = nil
	}
	wg.Wait()
}

// Conv2DGEMM is Conv2D lowered to the implicit GEMM with the given worker
// count (<=0 selects GOMAXPROCS, capped so tiny layers stay serial).
// in: [C1,H1,W1]; w: [C2,C1,F,F] (row-major, so w.Data is already the
// [C2, C1*F*F] weight matrix); bias: [C2] or nil. A padded call gathers from
// a zero-padded copy of in, so taps outside the input read +0.
func Conv2DGEMM(in, w, bias *tensor.Tensor, s, p int, relu bool, workers int) *tensor.Tensor {
	c2, f := w.Shape[0], w.Shape[2]
	if w.Shape[1] != in.Shape[0] {
		panic("cpuref: conv weights/input channel mismatch")
	}
	if p > 0 {
		in = Pad2D(in, p)
	}
	img := &Image{Data: in.Data, C: in.Shape[0], H: in.Shape[1], W: in.Shape[2], F: f, S: s}
	h2, w2 := (img.H-f)/s+1, (img.W-f)/s+1
	n, k := h2*w2, img.C*f*f
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if int64(c2)*int64(k)*int64(n) < gemmParallelMinMACs {
		workers = 1
	}
	GemmImage(w.Data, img, out.Data, c2, workers)
	if relu {
		for i, v := range out.Data {
			if v < 0 {
				out.Data[i] = 0
			}
		}
	}
	return out
}
