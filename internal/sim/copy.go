package sim

// Row lowering for plain copies. Channel elision (elide.go) leaves every
// staging and flatten step of a pipelined network as a perfect nest whose one
// store moves one element, dst[f(i…)] = src[g(i…)] with f and g affine in the
// nest. copyLoop runs such a nest as rows, the second row-copy lowering
// beside pad.go's:
//
//  1. evaluate the extents in nest order, stopping at the first empty level
//     (a zero-trip nest touches nothing, exactly like the scalar closures);
//  2. flatten and box-check both accesses once (flatAcc.flatten, shared with
//     the whole-nest executors); a failed check replays the scalar twin,
//     counted in ExecStats.GuardBailouts, so panics and partial writes are
//     the closures' exactly;
//  3. fold trailing levels into the innermost row while both accesses stay
//     contiguous across them, then walk the remaining levels in nest order
//     and move each row with copy() when both strides are 1 and the two rows
//     do not overlap, element by element in nest order otherwise.
//
// A copy moves bits, so NaN payloads and −0 survive as they do through the
// scalar loads and stores. Every other nest the whole-nest match leaves runs
// on the closures and, when it is an innermost compute loop, is counted in
// ExecStats.FallbackLoops.

import (
	"unsafe"

	"repro/internal/ir"
)

// copyLoop is a compiled copy nest plus its per-entry scratch. Machines are
// single-threaded, so the scratch lives with the compiled program.
type copyLoop struct {
	extents  []intFn
	dst, src flatAcc
	ext, idx []int64
	scalar   stmtFn // closure replay for guard failures
}

// copyLoop tries to lower f as a copy nest; nil means "not this form".
func (c *compiler) copyLoop(f *ir.For) stmtFn {
	vars, extents, st := collectNest(f)
	if st == nil {
		return nil
	}
	ld, ok := st.Value.(*ir.Load)
	if !ok {
		return nil
	}
	cl := &copyLoop{
		dst: flatAcc{acc: c.access(st.Buf, st.Index, vars)},
		src: flatAcc{acc: c.access(ld.Buf, ld.Index, vars)},
	}
	if cl.dst.acc == nil || cl.src.acc == nil {
		return nil
	}
	for _, x := range extents {
		cl.extents = append(cl.extents, c.intFn(x))
	}
	n := len(vars)
	cl.ext = make([]int64, n)
	cl.idx = make([]int64, n)
	cl.dst.str = make([]int64, n)
	cl.src.str = make([]int64, n)
	cl.scalar = c.twin(f)
	return cl.run
}

// collectNest walks a chain of single-statement For bodies down to a single
// Store. Extents must not reference any enclosing nest variable (triangular
// nests are not boxes). A nil store means the shape was not recognized.
func collectNest(f *ir.For) ([]*ir.Var, []ir.Expr, *ir.Store) {
	var vars []*ir.Var
	var extents []ir.Expr
	s := ir.Stmt(f)
	for {
		switch x := s.(type) {
		case *ir.For:
			if ir.UsesAnyVar(x.Extent, vars) {
				return nil, nil, nil
			}
			vars = append(vars, x.Var)
			extents = append(extents, x.Extent)
			s = x.Body
		case *ir.Block:
			if len(x.Stmts) != 1 {
				return nil, nil, nil
			}
			s = x.Stmts[0]
		case *ir.Store:
			return vars, extents, x
		default:
			return nil, nil, nil
		}
	}
}

// run executes one entry of the copy nest.
func (cl *copyLoop) run(e *cenv) {
	for l, fn := range cl.extents {
		n := fn(e)
		if n <= 0 {
			return
		}
		cl.ext[l] = n
	}
	st := e.m.stats
	if !cl.dst.flatten(e, cl.ext) || !cl.src.flatten(e, cl.ext) {
		if st != nil {
			st.GuardBailouts.Add(1)
		}
		cl.scalar(e)
		return
	}
	if st != nil {
		st.VectorRuns.Add(1)
	}
	ext, dstr, sstr := cl.ext, cl.dst.str, cl.src.str
	last := len(ext) - 1
	ds, ss := dstr[last], sstr[last]
	n := ext[last]
	for last > 0 && dstr[last-1] == n*ds && sstr[last-1] == n*ss {
		last--
		n *= ext[last]
	}
	d, s := cl.dst.data, cl.src.data
	do, so := cl.dst.base, cl.src.base
	idx := cl.idx[:last]
	clear(idx)
	for {
		if ds == 1 && ss == 1 && !overlaps(d[do:do+n], s[so:so+n]) {
			copy(d[do:do+n], s[so:so+n])
		} else {
			for i, o, p := int64(0), do, so; i < n; i++ {
				d[o] = s[p]
				o += ds
				p += ss
			}
		}
		l := last - 1
		for ; l >= 0; l-- {
			idx[l]++
			if idx[l] < ext[l] {
				do += dstr[l]
				so += sstr[l]
				break
			}
			idx[l] = 0
			do -= (ext[l] - 1) * dstr[l]
			so -= (ext[l] - 1) * sstr[l]
		}
		if l < 0 {
			return
		}
	}
}

// overlaps reports whether two slices share backing memory.
func overlaps(a, b []float32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	const sz = unsafe.Sizeof(float32(0))
	return pa < pb+uintptr(len(b))*sz && pb < pa+uintptr(len(a))*sz
}
