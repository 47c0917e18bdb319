// Package ir defines the loop-nest tensor IR that sits between the graph
// level (internal/relay) and OpenCL code generation (internal/codegen). It
// mirrors the slice of TVM's TIR that the thesis manipulates: perfectly typed
// float32 buffers, integer loop variables, symbolic (runtime-parameter)
// extents, scoped allocations (global / local / private / constant), and
// Intel-extension channel reads/writes.
//
// Kernels are built by internal/topi, transformed by internal/schedule,
// printed as OpenCL C by internal/codegen, statically analysed by
// internal/aoc, and functionally interpreted by internal/sim. All of those
// consumers share this one representation, so a schedule transformation that
// breaks semantics is caught by the interpreter-vs-reference tests.
package ir

import (
	"fmt"
	"strings"
)

// DType is an element type. The thesis deploys float32 networks end to end;
// integers appear only as loop indices and symbolic shape parameters.
type DType int

const (
	F32 DType = iota
	I32
)

func (d DType) String() string {
	if d == F32 {
		return "float"
	}
	return "int"
}

// Expr is an IR expression node.
type Expr interface {
	isExpr()
	String() string
}

// IntImm is an integer literal.
type IntImm struct{ Value int64 }

// FloatImm is a float32 literal.
type FloatImm struct{ Value float64 }

// Var is a named integer variable: either a loop iterator or a symbolic
// kernel parameter (symbolic shapes, §5.3). Identity is pointer identity.
type Var struct {
	Name string
	// Param marks symbolic shape parameters passed as kernel arguments.
	Param bool
}

// BinOp enumerates binary operators.
type BinOp int

const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	MaxOp
	MinOp
	LT
	GE
	EQ
	And
)

func (op BinOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	case MaxOp:
		return "max"
	case MinOp:
		return "min"
	case LT:
		return "<"
	case GE:
		return ">="
	case EQ:
		return "=="
	case And:
		return "&&"
	}
	return "?"
}

// Binary applies op to A and B.
type Binary struct {
	Op   BinOp
	A, B Expr
}

// Call is an intrinsic call: "exp", "relu" (lowered to max), "sqrt", etc.
type Call struct {
	Fn   string
	Args []Expr
}

// Load reads Buf at a multi-dimensional index.
type Load struct {
	Buf   *Buffer
	Index []Expr
}

// ChannelRead pops one float from an Intel OpenCL channel
// (read_channel_intel). It is an expression so it can feed stores directly.
type ChannelRead struct{ Ch *Channel }

// Select is a ternary cond ? a : b, used by the padding kernels.
type Select struct {
	Cond Expr
	A, B Expr
}

func (*IntImm) isExpr()      {}
func (*FloatImm) isExpr()    {}
func (*Var) isExpr()         {}
func (*Binary) isExpr()      {}
func (*Call) isExpr()        {}
func (*Load) isExpr()        {}
func (*ChannelRead) isExpr() {}
func (*Select) isExpr()      {}

func (e *IntImm) String() string   { return fmt.Sprintf("%d", e.Value) }
func (e *FloatImm) String() string { return fmt.Sprintf("%gf", e.Value) }
func (e *Var) String() string      { return e.Name }

func (e *Binary) String() string {
	switch e.Op {
	case MaxOp, MinOp:
		return fmt.Sprintf("%s(%s, %s)", e.Op, e.A, e.B)
	default:
		return fmt.Sprintf("(%s %s %s)", e.A, e.Op, e.B)
	}
}

func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Fn, strings.Join(args, ", "))
}

func (e *Load) String() string {
	return fmt.Sprintf("%s%s", e.Buf.Name, indexString(e.Index))
}

func (e *ChannelRead) String() string {
	return fmt.Sprintf("read_channel_intel(%s)", e.Ch.Name)
}

func (e *Select) String() string {
	return fmt.Sprintf("(%s ? %s : %s)", e.Cond, e.A, e.B)
}

func indexString(idx []Expr) string {
	var b strings.Builder
	for _, e := range idx {
		fmt.Fprintf(&b, "[%s]", e)
	}
	return b.String()
}

// ---- constructors ----

// CInt builds an integer literal.
func CInt(v int64) *IntImm { return &IntImm{Value: v} }

// CFloat builds a float literal.
func CFloat(v float64) *FloatImm { return &FloatImm{Value: v} }

// V builds a loop variable.
func V(name string) *Var { return &Var{Name: name} }

// Param builds a symbolic shape parameter variable.
func Param(name string) *Var { return &Var{Name: name, Param: true} }

// AddE, SubE, MulE, DivE, ModE build arithmetic nodes with trivial constant
// folding so generated code and trip-count analysis stay readable.
func AddE(a, b Expr) Expr { return fold(Add, a, b) }
func SubE(a, b Expr) Expr { return fold(Sub, a, b) }
func MulE(a, b Expr) Expr { return fold(Mul, a, b) }
func DivE(a, b Expr) Expr { return fold(Div, a, b) }
func ModE(a, b Expr) Expr { return fold(Mod, a, b) }

// MaxE and MinE build max/min nodes.
func MaxE(a, b Expr) Expr { return &Binary{Op: MaxOp, A: a, B: b} }
func MinE(a, b Expr) Expr { return &Binary{Op: MinOp, A: a, B: b} }

func fold(op BinOp, a, b Expr) Expr {
	ia, aok := a.(*IntImm)
	ib, bok := b.(*IntImm)
	if aok && bok {
		switch op {
		case Add:
			return CInt(ia.Value + ib.Value)
		case Sub:
			return CInt(ia.Value - ib.Value)
		case Mul:
			return CInt(ia.Value * ib.Value)
		case Div:
			if ib.Value != 0 {
				return CInt(ia.Value / ib.Value)
			}
		case Mod:
			if ib.Value != 0 {
				return CInt(ia.Value % ib.Value)
			}
		}
	}
	// Identity folds keep schedules from emitting (x*1) and (x+0).
	if bok {
		switch {
		case op == Mul && ib.Value == 1, op == Add && ib.Value == 0,
			op == Sub && ib.Value == 0, op == Div && ib.Value == 1:
			return a
		case op == Mul && ib.Value == 0:
			return CInt(0)
		}
	}
	if aok {
		switch {
		case op == Mul && ia.Value == 1, op == Add && ia.Value == 0:
			return b
		case op == Mul && ia.Value == 0:
			return CInt(0)
		}
	}
	return &Binary{Op: op, A: a, B: b}
}

// IsConst reports whether e is an integer literal, returning its value.
func IsConst(e Expr) (int64, bool) {
	if i, ok := e.(*IntImm); ok {
		return i.Value, true
	}
	return 0, false
}

// UsesVar reports whether expression e references v anywhere.
func UsesVar(e Expr, v *Var) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if x == Expr(v) {
			found = true
		}
	})
	return found
}

// WalkExpr visits e and all sub-expressions depth-first.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Binary:
		WalkExpr(x.A, fn)
		WalkExpr(x.B, fn)
	case *Call:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Load:
		for _, a := range x.Index {
			WalkExpr(a, fn)
		}
	case *Select:
		WalkExpr(x.Cond, fn)
		WalkExpr(x.A, fn)
		WalkExpr(x.B, fn)
	}
}

// substVar returns a copy of e with every occurrence of v replaced by repl.
// Shared Buffer and Channel pointers are preserved.
func substVar(e Expr, v *Var, repl Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *IntImm, *FloatImm, *ChannelRead:
		return x
	case *Var:
		if x == v {
			return repl
		}
		return x
	case *Binary:
		return fold(x.Op, substVar(x.A, v, repl), substVar(x.B, v, repl))
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substVar(a, v, repl)
		}
		return &Call{Fn: x.Fn, Args: args}
	case *Load:
		idx := make([]Expr, len(x.Index))
		for i, a := range x.Index {
			idx[i] = substVar(a, v, repl)
		}
		return &Load{Buf: x.Buf, Index: idx}
	case *Select:
		return &Select{Cond: substVar(x.Cond, v, repl), A: substVar(x.A, v, repl), B: substVar(x.B, v, repl)}
	}
	// Invariant: exhaustive over the package's own expression kinds.
	panic(fmt.Sprintf("ir: unknown expr %T", e))
}
