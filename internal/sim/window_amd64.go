package sim

import "repro/internal/cpufeat"

// useLanes selects the lane kernels of window_amd64.s: foldLanes8 for window
// nests whose fold has a lane axis, and emitLanes8 for the write-back rows
// of both executors that have a whole 8-lane block at unit stride (emit.go).
// It is set once from the shared CPU probe: the fold's stride-2
// de-interleave uses AVX2's VPERMPD. Tests clear it to force the scalar
// fold and write-back.
var useLanes = cpufeat.AVX2

// foldLanes8 is the lane fold kernel in window_amd64.s. It does no bounds
// checking; laneFold passes only lanes and taps that bind boxed, and masks
// the tail block's loads.
//
//go:noescape
func foldLanes8(dst, a *float32, taps *int64, bv *float32, m1, m2 *int32, ntaps, nblk, stride, op int, v0 float32)

// emitLanes8 is the write-back kernel in window_amd64.s, serving both
// executors' rows through emit. It does no bounds checking; emit passes a
// row that bind boxed and the mask of its last block.
//
//go:noescape
func emitLanes8(d, t, c *float32, m *int32, n, act, cstr int)
