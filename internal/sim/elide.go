package sim

// Channel elision for functional execution. On the board, pipelined kernels
// run concurrently and hand activations over through Intel channels (§4.6,
// §4.7). The functional engines run each kernel of a graph to completion in
// order over unbounded FIFOs, so there a channel is only a buffer — but the
// channel ops still keep the whole-nest match and the copy lowering away
// from every nest that touches them. ElideChannels rewrites the channels whose
// push/pop order is statically the identity into plain buffer accesses, so
// the nests around them lower like any other buffer nest.
//
// A channel is rewritten only when all of these hold:
//
//   - it has exactly one write site and exactly one read site in ks;
//   - neither site sits under an IfThen or inside a Select arm (and the read
//     is part of a stored or written value, not an index or a condition);
//   - every loop enclosing either site has a positive constant extent, and no
//     loop variable shadows another on the path;
//   - the writer's and reader's trip products are equal;
//   - the writer's kernel strictly precedes the reader's in ks.
//
// Then the site runs exactly once per iteration of its enclosing loops, so
// the k-th push happens at the writer's row-major linearised iteration k and
// the k-th pop at the reader's: write_channel(ch, v) becomes ch_buf[lin(iv)]
// = v and read_channel(ch) becomes ch_buf[lin(iv')]. Every slot is written
// by the earlier kernel before the later one reads it. Every other channel
// is left alone, so unbalanced designs still fail with errChannelDeadlock.
//
// The tree-walking interpreter (TierInterp) keeps the channel semantics and
// is the oracle the rewrite is checked against; codegen, the aoc model, clrt
// and verify never see rewritten kernels.

import (
	"fmt"

	"repro/internal/ir"
)

// ElideChannels returns ks with every eligible channel replaced by a buffer,
// plus those buffers (one per rewritten channel, in first-use order). The
// caller binds each buffer before running the returned kernels. Kernels that
// touch no rewritten channel are returned as they are; the rewritten ones
// are fresh copies taking their channel buffers as extra arguments, so ks
// itself is never mutated.
func ElideChannels(ks []*ir.Kernel) (rewritten []*ir.Kernel, bufs []*ir.Buffer) {
	survey := &elider{sites: map[*ir.Channel]*chanSites{}}
	for i, k := range ks {
		survey.kernel = i
		survey.stmt(k.Body)
	}
	rw := &elider{bufs: map[*ir.Channel]*ir.Buffer{}}
	touched := map[int][]*ir.Buffer{}
	for _, ch := range survey.order {
		s := survey.sites[ch]
		n, ok := s.balanced()
		if !ok {
			continue
		}
		b := ir.NewBuffer(ch.Name+"_buf", ir.Global, int(n))
		rw.bufs[ch] = b
		bufs = append(bufs, b)
		w, r := s.writes[0].kernel, s.reads[0].kernel
		touched[w] = append(touched[w], b)
		touched[r] = append(touched[r], b)
	}
	rewritten = make([]*ir.Kernel, len(ks))
	for i, k := range ks {
		extra, ok := touched[i]
		if !ok {
			rewritten[i] = k
			continue
		}
		args := append(append([]*ir.Buffer{}, k.Args...), extra...)
		// A kernel with buffer arguments cannot be autorun (§4.7); the
		// functional graph runs every kernel in order either way.
		rewritten[i] = &ir.Kernel{Name: k.Name, Args: args, ScalarArgs: k.ScalarArgs,
			Body: rw.stmt(k.Body)}
	}
	return rewritten, bufs
}

// chanSite is one channel op: the kernel it sits in, its enclosing loops
// (outermost first) and whether it runs conditionally.
type chanSite struct {
	kernel int
	loops  []*ir.For
	cond   bool
}

type chanSites struct{ writes, reads []chanSite }

// balanced reports whether the channel's k-th push and k-th pop provably sit
// at the same linearised index, and returns the trip count.
func (s *chanSites) balanced() (int64, bool) {
	if len(s.writes) != 1 || len(s.reads) != 1 {
		return 0, false
	}
	w, r := s.writes[0], s.reads[0]
	if w.cond || r.cond || w.kernel >= r.kernel {
		return 0, false
	}
	nw, ok := w.trip()
	if !ok {
		return 0, false
	}
	nr, ok := r.trip()
	return nw, ok && nw == nr
}

// trip is the product of the enclosing loops' extents, when every extent is
// a positive constant and every loop variable is distinct.
func (s chanSite) trip() (int64, bool) {
	n := int64(1)
	seen := map[*ir.Var]bool{}
	for _, l := range s.loops {
		c, ok := ir.IsConst(l.Extent)
		if !ok || c <= 0 || seen[l.Var] {
			return 0, false
		}
		seen[l.Var] = true
		n *= c
	}
	return n, true
}

// elider walks kernel bodies tracking the enclosing loops and whether the
// current node runs conditionally. With sites set it surveys channel ops;
// with bufs set it rebuilds the body with those channels' ops rewritten.
type elider struct {
	sites  map[*ir.Channel]*chanSites
	order  []*ir.Channel
	bufs   map[*ir.Channel]*ir.Buffer
	kernel int
	loops  []*ir.For
	cond   int
}

func (e *elider) record(ch *ir.Channel, write bool) {
	if e.sites == nil {
		return
	}
	s, ok := e.sites[ch]
	if !ok {
		s = &chanSites{}
		e.sites[ch] = s
		e.order = append(e.order, ch)
	}
	site := chanSite{kernel: e.kernel, loops: append([]*ir.For{}, e.loops...), cond: e.cond > 0}
	if write {
		s.writes = append(s.writes, site)
	} else {
		s.reads = append(s.reads, site)
	}
}

// index is the row-major linearisation of the enclosing loop variables.
func (e *elider) index() []ir.Expr {
	lin := ir.Expr(ir.CInt(0))
	for _, l := range e.loops {
		lin = ir.AddE(ir.MulE(lin, l.Extent), l.Var)
	}
	return []ir.Expr{lin}
}

func (e *elider) stmt(s ir.Stmt) ir.Stmt {
	switch x := s.(type) {
	case nil:
		return nil
	case *ir.Block:
		out := make([]ir.Stmt, len(x.Stmts))
		for i, c := range x.Stmts {
			out[i] = e.stmt(c)
		}
		return &ir.Block{Stmts: out}
	case *ir.Alloc:
		return x
	case *ir.For:
		ext := e.condExpr(x.Extent)
		e.loops = append(e.loops, x)
		body := e.stmt(x.Body)
		e.loops = e.loops[:len(e.loops)-1]
		return &ir.For{Var: x.Var, Extent: ext, Body: body, Unroll: x.Unroll}
	case *ir.Store:
		idx := make([]ir.Expr, len(x.Index))
		for i, ix := range x.Index {
			idx[i] = e.condExpr(ix)
		}
		return &ir.Store{Buf: x.Buf, Index: idx, Value: e.expr(x.Value)}
	case *ir.ChannelWrite:
		e.record(x.Ch, true)
		v := e.expr(x.Value)
		if b, ok := e.bufs[x.Ch]; ok {
			return &ir.Store{Buf: b, Index: e.index(), Value: v}
		}
		return &ir.ChannelWrite{Ch: x.Ch, Value: v}
	case *ir.IfThen:
		e.cond++
		out := &ir.IfThen{Cond: e.expr(x.Cond), Then: e.stmt(x.Then), Else: e.stmt(x.Else)}
		e.cond--
		return out
	}
	// Invariant: exhaustive over the IR's statement kinds.
	panic(fmt.Sprintf("sim: unknown stmt %T", s))
}

// condExpr walks an expression whose evaluation count is not one per
// iteration (an extent, an index, a condition): channel reads there are
// never rewritten.
func (e *elider) condExpr(x ir.Expr) ir.Expr {
	e.cond++
	out := e.expr(x)
	e.cond--
	return out
}

func (e *elider) expr(x ir.Expr) ir.Expr {
	switch v := x.(type) {
	case *ir.ChannelRead:
		e.record(v.Ch, false)
		if b, ok := e.bufs[v.Ch]; ok {
			return &ir.Load{Buf: b, Index: e.index()}
		}
		return v
	case *ir.Binary:
		return &ir.Binary{Op: v.Op, A: e.expr(v.A), B: e.expr(v.B)}
	case *ir.Call:
		args := make([]ir.Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = e.expr(a)
		}
		return &ir.Call{Fn: v.Fn, Args: args}
	case *ir.Load:
		idx := make([]ir.Expr, len(v.Index))
		for i, ix := range v.Index {
			idx[i] = e.condExpr(ix)
		}
		return &ir.Load{Buf: v.Buf, Index: idx}
	case *ir.Select:
		return &ir.Select{Cond: e.condExpr(v.Cond), A: e.condExpr(v.A), B: e.condExpr(v.B)}
	}
	return x
}
