package schedule

import (
	"fmt"

	"repro/internal/ir"
)

// findLoopVar returns the loop variable of the first loop named name in
// pre-order, or nil. Schedules built by topi use stable iterator names
// (ax1, yy, xx, rc, ry, rx, k, ...), which is how the thesis's hand-applied
// transformations address loops in generated kernels.
func findLoopVar(body ir.Stmt, name string) *ir.Var {
	var found *ir.Var
	ir.WalkStmt(body, func(s ir.Stmt) {
		if found != nil {
			return
		}
		if f, ok := s.(*ir.For); ok && f.Var.Name == name {
			found = f.Var
		}
	})
	return found
}

// UnrollByName unrolls the loop with the given iterator name: factor -1
// fully unrolls, factor > 1 strip-mines then unrolls the inner loop.
func UnrollByName(body ir.Stmt, name string, factor int) (ir.Stmt, error) {
	v := findLoopVar(body, name)
	if v == nil {
		return nil, fmt.Errorf("schedule: no loop named %q", name)
	}
	return unroll(body, v, factor)
}
