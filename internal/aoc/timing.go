package aoc

// The analytic cycle model. A kernel's runtime on the FPGA is
//
//	time = max(cycles / fmax, traffic / effective-memory-bandwidth)
//
// where cycles come from the loop tree annotated during analysis:
//
//   - fully unrolled loops are replicated hardware and cost their body once;
//   - pipelined perfect nests flatten (AOC launches one iteration per II
//     across the whole nest) and pay one fill;
//   - loops whose body has several regions re-fill per iteration;
//   - serialized loops (global-scratchpad RAW, §3.2) pay their body plus the
//     serialization overhead every iteration.

import (
	"repro/internal/fpga"

	"repro/internal/ir"
)

// Cycles evaluates the kernel's cycle count for one invocation under the
// given symbolic-shape bindings (nil for constant-shape kernels).
func (m *KernelModel) Cycles(bind map[*ir.Var]int64) int64 {
	return evalNode(m.root, m.rebind(bind))
}

// trafficBytes sums external-memory traffic over all LSU sites.
func (m *KernelModel) trafficBytes(bind map[*ir.Var]int64) int64 {
	bind = m.rebind(bind)
	var n int64
	for _, l := range m.LSUs {
		n += l.trafficBytes(bind)
	}
	return n
}

// rebind translates a binding map built against another structurally
// identical kernel instance onto this model's own scalar-argument vars.
// Compile caching hands one KernelModel to many designs, whose plans bind
// their own *ir.Var pointers; matching by name keeps those bindings valid.
// Returns the input map unchanged (no allocation) when the pointers already
// belong to this kernel.
func (m *KernelModel) rebind(bind map[*ir.Var]int64) map[*ir.Var]int64 {
	if len(bind) == 0 {
		return bind
	}
	same := true
	for v := range bind {
		if m.scalars[v.Name] != v {
			same = false
			break
		}
	}
	if same {
		return bind
	}
	out := make(map[*ir.Var]int64, len(bind))
	for v, n := range bind {
		if mv, ok := m.scalars[v.Name]; ok {
			out[mv] = n
		} else {
			out[v] = n
		}
	}
	return out
}

// TimeUS returns the modeled kernel execution time in microseconds on a
// design clocked at fmaxMHz with the given memory system.
func (m *KernelModel) TimeUS(bind map[*ir.Var]int64, fmaxMHz float64, board *fpga.Board) float64 {
	compute := float64(m.Cycles(bind)) / fmaxMHz        // cycles / (MHz) = microseconds
	memBW := board.PeakGBps * board.MemEfficiency * 1e3 // bytes per microsecond
	mem := float64(m.trafficBytes(bind)) / memBW
	if mem > compute {
		return mem
	}
	return compute
}

func evalNode(n node, bind map[*ir.Var]int64) int64 {
	switch x := n.(type) {
	case *leafNode:
		return int64(x.stmts) * leafStmtCycles
	case *blockNode:
		var sum int64
		for _, c := range x.children {
			sum += evalNode(c, bind)
		}
		return sum
	case *loopNode:
		switch x.mode {
		case modeUnrolled:
			return evalNode(x.child, bind)
		case modeSerial:
			trips := evalInt(x.extent, bind)
			return trips * (evalNode(x.child, bind) + serialLoopOverhead)
		default: // pipelined
			iters, ii := flatten(x, bind)
			// The fill cannot exceed what the loop can hide: short nests
			// have shallow pipelines.
			fill := int64(pipelineFill)
			if f := 8 + iters; f < fill {
				fill = f
			}
			return fill + iters*ii
		}
	}
	return 0
}

// flatten collapses a chain of pipelined loops into (iterations, II). A
// perfect pipelined child multiplies iterations. A block body of the
// init/reduce/write shape (leaves plus at most one pipelined sub-loop — the
// optimized conv/dense schedules) still pipelines through the outer loop:
// the outer II becomes the body's steady-state cycles, without re-paying the
// pipeline fill every iteration. Any other body serializes per iteration.
func flatten(l *loopNode, bind map[*ir.Var]int64) (iters, ii int64) {
	trips := evalInt(l.extent, bind)
	switch c := l.child.(type) {
	case *loopNode:
		if c.mode == modePipelined {
			i2, ii2 := flatten(c, bind)
			ii = ii2
			if int64(l.ii) > ii {
				ii = int64(l.ii)
			}
			return trips * i2, ii
		}
		body := evalNode(c, bind)
		return trips, maxI64(body, int64(maxInt(l.ii, 1)))
	case *leafNode:
		body := maxI64(int64(c.stmts)*leafStmtCycles, 1)
		ii = maxI64(body, int64(maxInt(l.ii, 1)))
		return trips, ii
	case *blockNode:
		var leafCycles int64
		var inner *loopNode
		simple := true
		for _, ch := range c.children {
			switch x := ch.(type) {
			case *leafNode:
				leafCycles += int64(x.stmts) * leafStmtCycles
			case *loopNode:
				if x.mode == modeUnrolled {
					leafCycles += evalNode(x.child, bind)
				} else if x.mode == modePipelined && inner == nil {
					inner = x
				} else {
					simple = false
				}
			default:
				simple = false
			}
		}
		if simple {
			steady := leafCycles
			if inner != nil {
				i2, ii2 := flatten(inner, bind)
				steady += i2 * ii2
			}
			return trips, maxI64(steady, int64(maxInt(l.ii, 1)))
		}
		body := evalNode(l.child, bind)
		return trips, maxI64(body, int64(maxInt(l.ii, 1)))
	default:
		body := evalNode(l.child, bind)
		return trips, maxI64(body, int64(maxInt(l.ii, 1)))
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
