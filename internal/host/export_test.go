package host

import (
	"fmt"

	"repro/internal/ir"
)

// PadCall is one pad invocation of a folded plan: the kernel, its buffers,
// its scalar bindings and the element counts its input and output hold.
type PadCall struct {
	Kernel        *ir.Kernel
	In, Out       *ir.Buffer
	Scalars       map[*ir.Var]int64
	InLen, OutLen int
}

// PadCalls returns the plan's pad invocations, one per distinct kernel and
// binding, in plan order.
func (f *Folded) PadCalls() []PadCall {
	seen := map[string]bool{}
	var calls []PadCall
	for _, inv := range f.plan {
		key := fmt.Sprintf("%p%v", inv.kernel, inv.bindings)
		if inv.opClass != "pad" || seen[key] {
			continue
		}
		seen[key] = true
		calls = append(calls, PadCall{Kernel: inv.kernel, In: inv.op.In, Out: inv.op.Out, Scalars: inv.bindings,
			InLen: shapeBytes(inv.layer.InShape) / 4, OutLen: shapeBytes(inv.layer.OutShape) / 4})
	}
	return calls
}
