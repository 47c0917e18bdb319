package sim

// maxFast/minFast against the math.Max/math.Min round trips they replace:
// every pair of special operands, in both orders, then 10⁶ seeded random bit
// patterns (about one in 256 a NaN).

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestMaxMinFastBitIdenticalToMath(t *testing.T) {
	specials := []uint32{
		0x00000000, 0x80000000, // ±0
		0x3f800000, 0xbf800000, // ±1
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // ±subnormal
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fc00001, 0xffc12345, // quiet NaN payloads
		0x7f800001, 0xff800abc, 0x7fffffff, // signaling and all-ones NaNs
	}
	check := func(a, b uint32) {
		x, y := math.Float32frombits(a), math.Float32frombits(b)
		if got, want := math.Float32bits(maxFast(x, y)), math.Float32bits(maxF(x, y)); got != want {
			t.Fatalf("maxFast(%#08x, %#08x) = %#08x, maxF %#08x", a, b, got, want)
		}
		if got, want := math.Float32bits(minFast(x, y)), math.Float32bits(minF(x, y)); got != want {
			t.Fatalf("minFast(%#08x, %#08x) = %#08x, minF %#08x", a, b, got, want)
		}
	}
	for _, a := range specials {
		for _, b := range specials {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint32(), rng.Uint32())
	}
}
