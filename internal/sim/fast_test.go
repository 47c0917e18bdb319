package sim

// maxFast/minFast against the math.Max/math.Min round trips they replace:
// every pair of special operands, in both orders, then 10⁶ seeded random bit
// patterns (about one in 256 a NaN). Then the lane kernel's vector max/min
// against maxFast/minFast on the same pairs.

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ir"
)

// maxMinSpecials are the special operands whose every pair maxFast and
// minFast must get right.
var maxMinSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x3f800000, 0xbf800000, // ±1
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // ±subnormal
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7fc00001, 0xffc12345, // quiet NaN payloads
	0x7f800001, 0xff800abc, 0x7fffffff, // signaling and all-ones NaNs
}

func TestMaxMinFastBitIdenticalToMath(t *testing.T) {
	check := func(a, b uint32) {
		x, y := math.Float32frombits(a), math.Float32frombits(b)
		if got, want := math.Float32bits(maxFast(x, y)), math.Float32bits(maxF(x, y)); got != want {
			t.Fatalf("maxFast(%#08x, %#08x) = %#08x, maxF %#08x", a, b, got, want)
		}
		if got, want := math.Float32bits(minFast(x, y)), math.Float32bits(minF(x, y)); got != want {
			t.Fatalf("minFast(%#08x, %#08x) = %#08x, minF %#08x", a, b, got, want)
		}
	}
	for _, a := range maxMinSpecials {
		for _, b := range maxMinSpecials {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint32(), rng.Uint32())
	}
}

// laneFoldOf runs the lane fold alone on one run: lanes outputs whose
// windows start stride elements apart in a, each folding the taps (element
// offsets) from v0 with op (ir.Add sums, ir.MaxOp or ir.MinOp).
func laneFoldOf(op ir.BinOp, v0 float32, a []float32, taps []int64, stride, lanes int) []float32 {
	wl := &windowLoop{tileNest: &tileNest{}, op: op, tapA: taps}
	wl.faA.data = a
	wl.off = make([]int64, wpD)
	wl.lanes, wl.laneStr = int64(lanes), stride
	wl.laneOut = make([]float32, (lanes+7)&^7)
	wl.laneB = make([]float32, len(taps))
	for k := range wl.laneB {
		wl.laneB[k] = 1
	}
	wl.laneFold(v0)
	return wl.laneOut[:lanes]
}

// TestLaneMaxMinBitIdenticalToFast puts every special pair, in both orders,
// through the lane kernel's max and min at lane strides 1 and 2: as the
// init value and one tap (v0 = a, tap b), and as two taps after the pools'
// init value. The second operands of one run sit in consecutive lanes, so
// the tail block's masks are exercised too.
func TestLaneMaxMinBitIdenticalToFast(t *testing.T) {
	if !useLanes {
		t.Skip("CPU has no AVX2: the lane kernel cannot run")
	}
	const poolInit = float32(-3.402823e38)
	n := len(maxMinSpecials)
	for _, op := range []ir.BinOp{ir.MaxOp, ir.MinOp} {
		fast := maxFast
		if op == ir.MinOp {
			fast = minFast
		}
		for _, stride := range []int{1, 2} {
			for _, ab := range maxMinSpecials {
				a := math.Float32frombits(ab)
				// Lane i reads one tap at i*stride and, for the two-tap
				// fold, a second at i*stride + n*stride: (v0, b_i) and
				// (poolInit, a, b_i) in the other lanes' layout.
				one := make([]float32, n*stride)
				two := make([]float32, 2*n*stride)
				for i, bb := range maxMinSpecials {
					one[i*stride] = math.Float32frombits(bb)
					two[i*stride] = a
					two[(n+i)*stride] = math.Float32frombits(bb)
				}
				gotOne := laneFoldOf(op, a, one, []int64{0}, stride, n)
				gotTwo := laneFoldOf(op, poolInit, two, []int64{0, int64(n * stride)}, stride, n)
				for i, bb := range maxMinSpecials {
					b := math.Float32frombits(bb)
					if got, want := math.Float32bits(gotOne[i]), math.Float32bits(fast(a, b)); got != want {
						t.Fatalf("%s stride %d: fold(%#08x; %#08x) = %#08x, want %#08x", op, stride, ab, bb, got, want)
					}
					if got, want := math.Float32bits(gotTwo[i]), math.Float32bits(fast(fast(poolInit, a), b)); got != want {
						t.Fatalf("%s stride %d: fold(init; %#08x, %#08x) = %#08x, want %#08x", op, stride, ab, bb, got, want)
					}
				}
			}
		}
	}
}
