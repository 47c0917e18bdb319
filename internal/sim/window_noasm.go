//go:build !amd64

package sim

// useLanes is always false off amd64: every window nest folds on the scalar
// windowLoop.fold and every write-back row runs on emitScalar.
var useLanes = false

func foldLanes8(dst, a *float32, taps *int64, bv *float32, m1, m2 *int32, ntaps, nblk, stride, op int, v0 float32) {
	panic("sim: foldLanes8 called without AVX2")
}

func emitLanes8(d, t, c *float32, m *int32, n, act, cstr int) {
	panic("sim: emitLanes8 called without AVX2")
}
