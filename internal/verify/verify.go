// Package verify statically checks a kernel set's channel dataflow before it
// is handed to aoc.Compile. The Intel OpenCL channel model (§4.6) gives no
// runtime protection: a producer/consumer trip-count mismatch, a doubly
// driven channel, or a cyclic topology deadlocks silently on hardware and
// costs a multi-hour recompile to diagnose. This pass catches those classes
// at host-program build time with typed diagnostics instead of panics.
//
// Trip counts are computed symbolically: each channel operation contributes
// the product of its enclosing loop extents (ir.Expr, simplified via
// ir.Simplify), so parameterized kernels with symbolic shapes are checked
// without knowing concrete bindings. Operations under IfThen or inside
// Select arms are data-dependent; their counts are marked inexact and
// mismatches involving them demote to warnings.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// Severity classifies a diagnostic. Errors make the design unrunnable
// (guaranteed or near-certain hardware deadlock); warnings flag risk the
// pass cannot prove either way.
type Severity int

const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding. Check names the rule ("trip-count",
// "discipline", "connectivity", "depth", "cycle", "autorun-args",
// "structure"); Kernel and Channel are set when the finding anchors to one.
type Diagnostic struct {
	Check    string
	Severity Severity
	Kernel   string
	Channel  string
	Msg      string
}

func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]", d.Severity, d.Check)
	if d.Kernel != "" {
		fmt.Fprintf(&b, " kernel %s", d.Kernel)
	}
	if d.Channel != "" {
		fmt.Fprintf(&b, " channel %s", d.Channel)
	}
	fmt.Fprintf(&b, ": %s", d.Msg)
	return b.String()
}

// Result collects every diagnostic for one kernel set.
type Result struct {
	Diags []Diagnostic
}

// Errors returns the error-severity diagnostics.
func (r *Result) Errors() []Diagnostic { return r.filter(Error) }

// Warnings returns the warning-severity diagnostics.
func (r *Result) Warnings() []Diagnostic { return r.filter(Warning) }

func (r *Result) filter(s Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity == s {
			out = append(out, d)
		}
	}
	return out
}

// Err returns nil when the set passed, otherwise a single error summarizing
// every error-severity diagnostic.
func (r *Result) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	lines := make([]string, len(errs))
	for i, d := range errs {
		lines[i] = d.String()
	}
	return fmt.Errorf("verify: %d error(s):\n  %s", len(errs), strings.Join(lines, "\n  "))
}

func (r *Result) add(d Diagnostic) { r.Diags = append(r.Diags, d) }

// count is a symbolic trip count: the simplified sum of loop-extent products
// over all sites, plus an exactness bit (false when any site sits under a
// branch, so the static count is an upper bound, not a guarantee).
type count struct {
	n     ir.Expr
	exact bool
}

// chanUse aggregates per-channel counts across a kernel set.
type chanUse struct {
	writes    map[*ir.Channel]count
	reads     map[*ir.Channel]count
	writersBy map[*ir.Channel][]string // kernel names, first-use order
	readersBy map[*ir.Channel][]string
	order     []*ir.Channel // deterministic reporting order
	seen      map[*ir.Channel]bool
}

func newChanUse() *chanUse {
	return &chanUse{
		writes:    map[*ir.Channel]count{},
		reads:     map[*ir.Channel]count{},
		writersBy: map[*ir.Channel][]string{},
		readersBy: map[*ir.Channel][]string{},
		seen:      map[*ir.Channel]bool{},
	}
}

func (u *chanUse) note(ch *ir.Channel) {
	if !u.seen[ch] {
		u.seen[ch] = true
		u.order = append(u.order, ch)
	}
}

func addCount(m map[*ir.Channel]count, ch *ir.Channel, mult ir.Expr, exact bool) {
	c, ok := m[ch]
	if !ok {
		m[ch] = count{n: mult, exact: exact}
		return
	}
	m[ch] = count{n: ir.AddE(c.n, mult), exact: c.exact && exact}
}

func appendName(m map[*ir.Channel][]string, ch *ir.Channel, name string) {
	for _, n := range m[ch] {
		if n == name {
			return
		}
	}
	m[ch] = append(m[ch], name)
}

// countKernel walks one kernel body accumulating channel trip counts.
// mult is the product of enclosing loop extents; exact turns false under
// IfThen and inside Select arms.
func (u *chanUse) countKernel(k *ir.Kernel) {
	var walkExpr func(e ir.Expr, mult ir.Expr, exact bool)
	walkExpr = func(e ir.Expr, mult ir.Expr, exact bool) {
		switch x := e.(type) {
		case nil:
		case *ir.ChannelRead:
			u.note(x.Ch)
			addCount(u.reads, x.Ch, mult, exact)
			appendName(u.readersBy, x.Ch, k.Name)
		case *ir.Binary:
			walkExpr(x.A, mult, exact)
			walkExpr(x.B, mult, exact)
		case *ir.Call:
			for _, a := range x.Args {
				walkExpr(a, mult, exact)
			}
		case *ir.Load:
			for _, i := range x.Index {
				walkExpr(i, mult, exact)
			}
		case *ir.Select:
			walkExpr(x.Cond, mult, exact)
			// Only one arm evaluates; a ChannelRead inside either is
			// data-dependent.
			walkExpr(x.A, mult, false)
			walkExpr(x.B, mult, false)
		}
	}
	var walkStmt func(s ir.Stmt, mult ir.Expr, exact bool)
	walkStmt = func(s ir.Stmt, mult ir.Expr, exact bool) {
		switch x := s.(type) {
		case nil:
		case *ir.Block:
			for _, c := range x.Stmts {
				walkStmt(c, mult, exact)
			}
		case *ir.Alloc:
		case *ir.For:
			walkExpr(x.Extent, mult, exact)
			walkStmt(x.Body, ir.MulE(mult, x.Extent), exact)
		case *ir.IfThen:
			walkExpr(x.Cond, mult, exact)
			walkStmt(x.Then, mult, false)
			walkStmt(x.Else, mult, false)
		case *ir.Store:
			for _, i := range x.Index {
				walkExpr(i, mult, exact)
			}
			walkExpr(x.Value, mult, exact)
		case *ir.ChannelWrite:
			u.note(x.Ch)
			addCount(u.writes, x.Ch, mult, exact)
			appendName(u.writersBy, x.Ch, k.Name)
			walkExpr(x.Value, mult, exact)
		}
	}
	walkStmt(k.Body, ir.CInt(1), true)
}

// sameCount reports whether two simplified symbolic counts are provably
// equal: numerically when both are constant, structurally otherwise.
func sameCount(a, b ir.Expr) bool {
	ca, aok := ir.IsConst(a)
	cb, bok := ir.IsConst(b)
	if aok && bok {
		return ca == cb
	}
	if aok != bok {
		return false
	}
	return a.String() == b.String()
}

// Kernels runs every check over the kernel set and returns all findings.
// It never panics on malformed input; structural problems surface as
// "structure" diagnostics.
func Kernels(ks []*ir.Kernel) *Result {
	res := &Result{}
	use := newChanUse()
	for _, k := range ks {
		if k == nil {
			res.add(Diagnostic{Check: "structure", Severity: Error, Msg: "nil kernel in set"})
			continue
		}
		if err := k.Validate(); err != nil {
			res.add(Diagnostic{Check: "structure", Severity: Error, Kernel: k.Name, Msg: err.Error()})
			continue
		}
		checkAutorun(k, res)
		use.countKernel(k)
	}
	checkChannels(use, res)
	checkCycles(ks, res)
	return res
}

// checkAutorun flags autorun kernels that take host-visible arguments.
// ir.Validate rejects global buffer args but permits scalar args, which the
// hardware equally cannot deliver to an autorun compute unit.
func checkAutorun(k *ir.Kernel, res *Result) {
	if !k.Autorun {
		return
	}
	if len(k.Args) > 0 {
		res.add(Diagnostic{Check: "autorun-args", Severity: Error, Kernel: k.Name,
			Msg: fmt.Sprintf("autorun kernel takes %d global buffer argument(s); autorun compute units start before any host enqueue and cannot receive them", len(k.Args))})
	}
	if len(k.ScalarArgs) > 0 {
		names := make([]string, len(k.ScalarArgs))
		for i, v := range k.ScalarArgs {
			names[i] = v.Name
		}
		res.add(Diagnostic{Check: "autorun-args", Severity: Error, Kernel: k.Name,
			Msg: fmt.Sprintf("autorun kernel takes scalar argument(s) %s; autorun compute units launch without a host clSetKernelArg", strings.Join(names, ", "))})
	}
}

func checkChannels(use *chanUse, res *Result) {
	for _, ch := range use.order {
		writers, readers := use.writersBy[ch], use.readersBy[ch]

		// Connectivity: data pushed with no consumer fills the FIFO and
		// stalls the producer forever; reads with no producer block forever.
		if len(writers) == 0 {
			res.add(Diagnostic{Check: "connectivity", Severity: Error, Channel: ch.Name,
				Msg: fmt.Sprintf("read by %s but never written; the reader blocks forever", strings.Join(readers, ", "))})
		}
		if len(readers) == 0 {
			res.add(Diagnostic{Check: "connectivity", Severity: Error, Channel: ch.Name,
				Msg: fmt.Sprintf("written by %s but never read; the FIFO fills and stalls the writer", strings.Join(writers, ", "))})
		}

		// Discipline: the Intel channel model requires exactly one static
		// writer kernel and one static reader kernel per channel.
		if len(writers) > 1 {
			res.add(Diagnostic{Check: "discipline", Severity: Error, Channel: ch.Name,
				Msg: fmt.Sprintf("written by multiple kernels (%s); channels permit a single static writer", strings.Join(writers, ", "))})
		}
		if len(readers) > 1 {
			res.add(Diagnostic{Check: "discipline", Severity: Error, Channel: ch.Name,
				Msg: fmt.Sprintf("read by multiple kernels (%s); channels permit a single static reader", strings.Join(readers, ", "))})
		}

		// Depth: an unbuffered channel rendezvous-couples producer and
		// consumer; any II mismatch serializes the pipeline.
		if ch.Depth == 0 {
			res.add(Diagnostic{Check: "depth", Severity: Warning, Channel: ch.Name,
				Msg: "depth 0 (unbuffered); producer and consumer fully rendezvous-couple, stalling on any II mismatch"})
		}

		// Trip counts: writes and reads must balance or one side deadlocks.
		w, hasW := use.writes[ch]
		r, hasR := use.reads[ch]
		if !hasW || !hasR {
			continue // connectivity error already reported
		}
		wn, rn := ir.Simplify(w.n), ir.Simplify(r.n)
		if sameCount(wn, rn) {
			continue
		}
		sev := Error
		detail := "guaranteed deadlock on hardware"
		if !w.exact || !r.exact {
			sev = Warning
			detail = "counts are data-dependent (branch-guarded channel ops); cannot prove balance"
		}
		res.add(Diagnostic{Check: "trip-count", Severity: sev, Channel: ch.Name,
			Msg: fmt.Sprintf("write trip count %s (by %s) != read trip count %s (by %s); %s",
				wn, strings.Join(use.writersBy[ch], ", "), rn, strings.Join(use.readersBy[ch], ", "), detail)})
	}
}

// checkCycles flags cyclic channel topologies. The clrt host model (and the
// per-kernel sim) executes kernels to completion in dependency order; a
// cycle has no valid order and on hardware deadlocks unless every kernel in
// the loop carefully interleaves — a pattern this codebase never generates.
func checkCycles(ks []*ir.Kernel, res *Result) {
	type edge struct{ to, via string }
	readersOf := map[*ir.Channel][]string{}
	adj := map[string][]edge{}
	var names []string
	for _, k := range ks {
		if k == nil {
			continue
		}
		names = append(names, k.Name)
		reads, _ := k.Channels()
		for _, ch := range reads {
			readersOf[ch] = append(readersOf[ch], k.Name)
		}
	}
	for _, k := range ks {
		if k == nil {
			continue
		}
		_, writes := k.Channels()
		for _, ch := range writes {
			for _, r := range readersOf[ch] {
				adj[k.Name] = append(adj[k.Name], edge{to: r, via: ch.Name})
			}
		}
	}
	sort.Strings(names)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	var found bool
	var visit func(n string)
	visit = func(n string) {
		if found {
			return
		}
		color[n] = gray
		stack = append(stack, n)
		for _, e := range adj[n] {
			switch color[e.to] {
			case white:
				visit(e.to)
			case gray:
				// Found a back edge: report the cycle path.
				i := 0
				for j, s := range stack {
					if s == e.to {
						i = j
						break
					}
				}
				path := append(append([]string{}, stack[i:]...), e.to)
				res.add(Diagnostic{Check: "cycle", Severity: Error,
					Msg: fmt.Sprintf("cyclic channel topology: %s (closing via channel %s); no kernel execution order can drain it", strings.Join(path, " -> "), e.via)})
				found = true
			}
			if found {
				return
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range names {
		if color[n] == white {
			visit(n)
		}
	}
}
