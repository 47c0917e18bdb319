package ir

import (
	"fmt"
	"strings"
)

// Scope is an OpenCL memory region (§2.3.3). The AOC model maps Global to
// external memory LSUs, Local to BRAM, Private to registers (or BRAM when too
// large), and Constant to on-chip ROM.
type Scope int

const (
	Global Scope = iota
	Local
	Private
	Constant
)

func (s Scope) String() string {
	switch s {
	case Global:
		return "global"
	case Local:
		return "local"
	case Private:
		return "private"
	case Constant:
		return "constant"
	}
	return "?"
}

// Buffer is a typed multi-dimensional array. Shape extents may be symbolic
// (Var with Param=true) for parameterized kernels (§4.9/§5.3). Identity is
// pointer identity.
type Buffer struct {
	Name  string
	Shape []Expr
	Scope Scope
	Elem  DType
	// ExplicitStrides marks buffers of symbolic-shape kernels whose array
	// subscripts go through TVM-generated stride variables (§5.3). AOC cannot
	// prove such accesses contiguous and refuses to coalesce them; the
	// thesis's workaround (Listing 5.11) fixes the innermost stride to the
	// constant 1, which corresponds to leaving this flag false.
	ExplicitStrides bool
}

// NewBuffer builds a buffer with constant extents.
func NewBuffer(name string, scope Scope, dims ...int) *Buffer {
	shape := make([]Expr, len(dims))
	for i, d := range dims {
		shape[i] = CInt(int64(d))
	}
	return &Buffer{Name: name, Shape: shape, Scope: scope, Elem: F32}
}

// NewBufferE builds a buffer with expression extents (symbolic shapes).
func NewBufferE(name string, scope Scope, dims ...Expr) *Buffer {
	return &Buffer{Name: name, Shape: dims, Scope: scope, Elem: F32}
}

// ConstLen returns the element count if all extents are constant.
func (b *Buffer) ConstLen() (int64, bool) {
	n := int64(1)
	for _, d := range b.Shape {
		c, ok := IsConst(d)
		if !ok {
			return 0, false
		}
		n *= c
	}
	return n, true
}

// Channel is an Intel OpenCL channel (§4.6): a register FIFO between kernels.
// Depth 0 means an unbuffered channel.
type Channel struct {
	Name  string
	Depth int
}

// Stmt is an IR statement node.
type Stmt interface {
	isStmt()
}

// Block is a statement sequence.
type Block struct{ Stmts []Stmt }

// For is a counted loop over [0, Extent). Unroll carries the pragma state:
// 0 = no pragma (compiler may still pipeline), -1 = #pragma unroll (full),
// n>1 = #pragma unroll n (partial).
type For struct {
	Var    *Var
	Extent Expr
	Body   Stmt
	Unroll int
}

// Store writes Value into Buf at Index.
type Store struct {
	Buf   *Buffer
	Index []Expr
	Value Expr
}

// ChannelWrite pushes Value into Ch (write_channel_intel).
type ChannelWrite struct {
	Ch    *Channel
	Value Expr
}

// IfThen executes Then when Cond != 0, else Else (may be nil).
type IfThen struct {
	Cond Expr
	Then Stmt
	Else Stmt
}

// Alloc introduces a non-argument buffer (local/private scratchpad) for the
// remainder of the enclosing block. Extent expressions must be constant or
// kernel parameters.
type Alloc struct{ Buf *Buffer }

func (*Block) isStmt()        {}
func (*For) isStmt()          {}
func (*Store) isStmt()        {}
func (*ChannelWrite) isStmt() {}
func (*IfThen) isStmt()       {}
func (*Alloc) isStmt()        {}

// Seq builds a Block, flattening nested blocks.
func Seq(stmts ...Stmt) Stmt {
	var out []Stmt
	for _, s := range stmts {
		if s == nil {
			continue
		}
		if b, ok := s.(*Block); ok {
			out = append(out, b.Stmts...)
			continue
		}
		out = append(out, s)
	}
	if len(out) == 1 {
		return out[0]
	}
	return &Block{Stmts: out}
}

// Loop builds a For with a constant extent.
func Loop(v *Var, extent int, body Stmt) *For {
	return &For{Var: v, Extent: CInt(int64(extent)), Body: body}
}

// LoopE builds a For with an expression extent.
func LoopE(v *Var, extent Expr, body Stmt) *For {
	return &For{Var: v, Extent: extent, Body: body}
}

// Kernel is one OpenCL kernel: the unit AOC compiles to a compute unit.
type Kernel struct {
	Name string
	// Args are the global-memory buffer arguments in declaration order.
	Args []*Buffer
	// ScalarArgs are symbolic shape parameters (int kernel arguments).
	ScalarArgs []*Var
	Body       Stmt
	// Autorun marks __attribute__((autorun)) kernels (§4.7). Autorun kernels
	// must have no global buffer arguments.
	Autorun bool
}

// Validate checks structural invariants: autorun kernels take no global
// buffers, every loaded/stored buffer is an argument or allocated, every
// loop variable is bound before use.
func (k *Kernel) Validate() error {
	if k.Autorun && len(k.Args) > 0 {
		return fmt.Errorf("kernel %s: autorun kernels cannot have global buffer arguments", k.Name)
	}
	known := map[*Buffer]bool{}
	for _, b := range k.Args {
		if b.Scope != Global && b.Scope != Constant {
			return fmt.Errorf("kernel %s: argument %s must be global or constant scope, got %s", k.Name, b.Name, b.Scope)
		}
		known[b] = true
	}
	bound := map[*Var]bool{}
	for _, v := range k.ScalarArgs {
		bound[v] = true
	}
	return checkStmt(k.Name, k.Body, known, bound)
}

func checkStmt(kn string, s Stmt, known map[*Buffer]bool, bound map[*Var]bool) error {
	switch x := s.(type) {
	case nil:
		return nil
	case *Block:
		for _, c := range x.Stmts {
			if err := checkStmt(kn, c, known, bound); err != nil {
				return err
			}
		}
		return nil
	case *Alloc:
		if x.Buf.Scope == Global {
			return fmt.Errorf("kernel %s: cannot Alloc global buffer %s", kn, x.Buf.Name)
		}
		known[x.Buf] = true
		return nil
	case *For:
		if err := checkExpr(kn, x.Extent, known, bound); err != nil {
			return err
		}
		bound[x.Var] = true
		err := checkStmt(kn, x.Body, known, bound)
		delete(bound, x.Var)
		return err
	case *Store:
		if !known[x.Buf] {
			return fmt.Errorf("kernel %s: store to unknown buffer %s", kn, x.Buf.Name)
		}
		if len(x.Index) != len(x.Buf.Shape) {
			return fmt.Errorf("kernel %s: store to %s with %d indices, buffer rank %d", kn, x.Buf.Name, len(x.Index), len(x.Buf.Shape))
		}
		for _, e := range x.Index {
			if err := checkExpr(kn, e, known, bound); err != nil {
				return err
			}
		}
		return checkExpr(kn, x.Value, known, bound)
	case *ChannelWrite:
		return checkExpr(kn, x.Value, known, bound)
	case *IfThen:
		if err := checkExpr(kn, x.Cond, known, bound); err != nil {
			return err
		}
		if err := checkStmt(kn, x.Then, known, bound); err != nil {
			return err
		}
		return checkStmt(kn, x.Else, known, bound)
	}
	return fmt.Errorf("kernel %s: unknown stmt %T", kn, s)
}

func checkExpr(kn string, e Expr, known map[*Buffer]bool, bound map[*Var]bool) error {
	var err error
	WalkExpr(e, func(x Expr) {
		if err != nil {
			return
		}
		switch n := x.(type) {
		case *Var:
			if !bound[n] {
				err = fmt.Errorf("kernel %s: unbound variable %s", kn, n.Name)
			}
		case *Load:
			if !known[n.Buf] {
				err = fmt.Errorf("kernel %s: load from unknown buffer %s", kn, n.Buf.Name)
			} else if len(n.Index) != len(n.Buf.Shape) {
				err = fmt.Errorf("kernel %s: load from %s with %d indices, buffer rank %d", kn, n.Buf.Name, len(n.Index), len(n.Buf.Shape))
			}
		}
	})
	return err
}

// WalkStmt visits s and all sub-statements depth-first, pre-order.
func WalkStmt(s Stmt, fn func(Stmt)) {
	if s == nil {
		return
	}
	fn(s)
	switch x := s.(type) {
	case *Block:
		for _, c := range x.Stmts {
			WalkStmt(c, fn)
		}
	case *For:
		WalkStmt(x.Body, fn)
	case *IfThen:
		WalkStmt(x.Then, fn)
		WalkStmt(x.Else, fn)
	}
}

// WalkExprs visits every expression occurring in s (loop extents, indices,
// stored values, conditions), including sub-expressions.
func WalkExprs(s Stmt, fn func(Expr)) {
	WalkStmt(s, func(st Stmt) {
		switch x := st.(type) {
		case *For:
			WalkExpr(x.Extent, fn)
		case *Store:
			for _, e := range x.Index {
				WalkExpr(e, fn)
			}
			WalkExpr(x.Value, fn)
		case *ChannelWrite:
			WalkExpr(x.Value, fn)
		case *IfThen:
			WalkExpr(x.Cond, fn)
		}
	})
}

// SubstStmt returns a copy of s with v replaced by repl in all expressions.
// For bodies are rebuilt; Buffer/Channel identities are preserved.
func SubstStmt(s Stmt, v *Var, repl Expr) Stmt {
	switch x := s.(type) {
	case nil:
		return nil
	case *Block:
		out := make([]Stmt, len(x.Stmts))
		for i, c := range x.Stmts {
			out[i] = SubstStmt(c, v, repl)
		}
		return &Block{Stmts: out}
	case *Alloc:
		return x
	case *For:
		if x.Var == v {
			// Shadowed: extent may still reference v.
			return &For{Var: x.Var, Extent: substVar(x.Extent, v, repl), Body: x.Body, Unroll: x.Unroll}
		}
		return &For{Var: x.Var, Extent: substVar(x.Extent, v, repl), Body: SubstStmt(x.Body, v, repl), Unroll: x.Unroll}
	case *Store:
		idx := make([]Expr, len(x.Index))
		for i, e := range x.Index {
			idx[i] = substVar(e, v, repl)
		}
		return &Store{Buf: x.Buf, Index: idx, Value: substVar(x.Value, v, repl)}
	case *ChannelWrite:
		return &ChannelWrite{Ch: x.Ch, Value: substVar(x.Value, v, repl)}
	case *IfThen:
		return &IfThen{Cond: substVar(x.Cond, v, repl), Then: SubstStmt(x.Then, v, repl), Else: SubstStmt(x.Else, v, repl)}
	}
	// Invariant: exhaustive over the package's own statement kinds.
	panic(fmt.Sprintf("ir: unknown stmt %T", s))
}

// Channels returns the distinct channels read or written by the kernel, in
// first-use order.
func (k *Kernel) Channels() (reads, writes []*Channel) {
	seenR, seenW := map[*Channel]bool{}, map[*Channel]bool{}
	WalkStmt(k.Body, func(s Stmt) {
		if w, ok := s.(*ChannelWrite); ok && !seenW[w.Ch] {
			seenW[w.Ch] = true
			writes = append(writes, w.Ch)
		}
	})
	WalkExprs(k.Body, func(e Expr) {
		if r, ok := e.(*ChannelRead); ok && !seenR[r.Ch] {
			seenR[r.Ch] = true
			reads = append(reads, r.Ch)
		}
	})
	return reads, writes
}

// Allocs returns all buffers allocated inside the kernel body.
func (k *Kernel) Allocs() []*Buffer {
	var out []*Buffer
	WalkStmt(k.Body, func(s Stmt) {
		if a, ok := s.(*Alloc); ok {
			out = append(out, a.Buf)
		}
	})
	return out
}

// Dump renders the statement tree for debugging and golden tests.
func Dump(s Stmt) string {
	var b strings.Builder
	dump(&b, s, 0)
	return b.String()
}

func dump(b *strings.Builder, s Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	switch x := s.(type) {
	case nil:
	case *Block:
		for _, c := range x.Stmts {
			dump(b, c, depth)
		}
	case *Alloc:
		fmt.Fprintf(b, "%salloc %s %s%s\n", ind, x.Buf.Scope, x.Buf.Name, indexString(x.Buf.Shape))
	case *For:
		tag := ""
		switch {
		case x.Unroll == -1:
			tag = " #unroll"
		case x.Unroll > 1:
			tag = fmt.Sprintf(" #unroll(%d)", x.Unroll)
		}
		fmt.Fprintf(b, "%sfor %s in [0,%s)%s\n", ind, x.Var.Name, x.Extent, tag)
		dump(b, x.Body, depth+1)
	case *Store:
		fmt.Fprintf(b, "%s%s%s = %s\n", ind, x.Buf.Name, indexString(x.Index), x.Value)
	case *ChannelWrite:
		fmt.Fprintf(b, "%swrite_channel(%s, %s)\n", ind, x.Ch.Name, x.Value)
	case *IfThen:
		fmt.Fprintf(b, "%sif %s\n", ind, x.Cond)
		dump(b, x.Then, depth+1)
		if x.Else != nil {
			fmt.Fprintf(b, "%selse\n", ind)
			dump(b, x.Else, depth+1)
		}
	}
}
