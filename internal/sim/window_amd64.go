package sim

import "repro/internal/cpufeat"

// useLanes selects the lane-parallel fold (foldLanes8) for window nests
// whose fold has a lane axis. It is set once from the shared CPU probe: the
// kernel's stride-2 de-interleave uses AVX2's VPERMPD. Tests clear it to
// force the scalar fold.
var useLanes = cpufeat.AVX2

// foldLanes8 is the lane fold kernel in window_amd64.s. It does no bounds
// checking; laneFold passes only lanes and taps that bind boxed, and masks
// the tail block's loads.
//
//go:noescape
func foldLanes8(dst, a *float32, taps *int64, bv *float32, m1, m2 *int32, ntaps, nblk, stride, op int, v0 float32)

// emitLanes8 is the merged run's write-back kernel in window_amd64.s. It
// does no bounds checking; emitLanes passes a row that bind boxed and masks
// the tail block's stores.
//
//go:noescape
func emitLanes8(d, t *float32, m *int32, nblk, act, hasC int, c float32)
