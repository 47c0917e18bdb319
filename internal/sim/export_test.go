package sim

import "sync/atomic"

// CPUHasLanes is useLanes as the package set it from the CPU.
var CPUHasLanes = useLanes

// SetLanes turns the lane kernels (the window fold's and the write-back's)
// on (only where the CPU has them) or off, and returns a func that restores
// the CPU's setting.
func SetLanes(on bool) (restore func()) {
	useLanes = on && CPUHasLanes
	return func() { useLanes = CPUHasLanes }
}

// LaneRuns counts window runs by the fold their plan chose: a merged lane
// run, the four-point fold or the per-point scalar fold.
type LaneRuns struct {
	Merged, Multi, Scalar atomic.Int64
}

// CountLaneRuns counts every window run until stop is called.
func CountLaneRuns() (runs *LaneRuns, stop func()) {
	runs = &LaneRuns{}
	laneHook = func(lanes int64, multi bool) {
		switch {
		case lanes > 0:
			runs.Merged.Add(1)
		case multi:
			runs.Multi.Add(1)
		default:
			runs.Scalar.Add(1)
		}
	}
	return runs, func() { laneHook = nil }
}

// EmitRows counts write-back rows by path: the lane kernel or the scalar
// twin.
type EmitRows struct {
	Lanes, Scalar atomic.Int64
}

// CountEmitRows counts every write-back row until stop is called.
func CountEmitRows() (rows *EmitRows, stop func()) {
	rows = &EmitRows{}
	rowHook = func(lanes bool) {
		if lanes {
			rows.Lanes.Add(1)
		} else {
			rows.Scalar.Add(1)
		}
	}
	return rows, func() { rowHook = nil }
}

// Push appends v to the channel FIFO, as a producer kernel would.
func (f *Fifo) Push(v float32) { f.push(v) }
