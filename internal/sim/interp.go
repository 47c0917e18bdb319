// Package sim executes IR kernels. It has two halves:
//
//   - interp.go: a functional interpreter. Kernels are compiled to closures
//     and run against real float32 buffers, so the numeric output of any
//     schedule (naive or optimized, pipelined or folded) can be checked
//     against the native Go references in internal/cpuref. This is the
//     reproduction's stand-in for "run the bitstream and verify the output".
//
//   - timing lives in internal/aoc (static cycle model) and internal/clrt
//     (event-level host simulation); sim deliberately knows nothing about
//     time, only values.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ir"
)

// errChannelDeadlock marks executions that would hang on hardware: a kernel
// reading an empty channel, or a finished graph leaving undrained channel
// values (producer/consumer trip-count mismatch, §4.6). *DeadlockError wraps
// it, so callers match either; the static checker in internal/verify rejects
// most such designs before they ever reach execution.
var errChannelDeadlock = errors.New("channel deadlock")

// DeadlockError carries the offending channel. It wraps errChannelDeadlock.
type DeadlockError struct {
	Channel string
	// Undrained is the leftover value count for drain failures; 0 means an
	// underflow (read from empty channel).
	Undrained int
}

func (e *DeadlockError) Error() string {
	if e.Undrained > 0 {
		return fmt.Sprintf("channel %s holds %d undrained values after graph execution (deadlock on hardware)", e.Channel, e.Undrained)
	}
	return fmt.Sprintf("read from empty channel %s (deadlock on hardware)", e.Channel)
}

func (e *DeadlockError) Unwrap() error { return errChannelDeadlock }

// deadlockPanic is the panic payload the interpreter and closure compiler
// throw on channel underflow deep inside expression evaluation; Run and
// runInterp recover it into a typed *DeadlockError.
type deadlockPanic struct{ channel string }

// recoverRunErr converts an execution panic into the error Run returns:
// channel underflows become typed deadlock errors, everything else (bounds
// violations, unbound buffers) keeps the generic fault message a real OpenCL
// run would surface.
func recoverRunErr(kernel string, r any) error {
	if d, ok := r.(deadlockPanic); ok {
		return fmt.Errorf("kernel %s: %w", kernel, &DeadlockError{Channel: d.channel})
	}
	return fmt.Errorf("kernel %s: %v", kernel, r)
}

// Fifo is a channel's runtime state: an unbounded float queue. Functional
// interpretation runs producers before consumers, so depth limits (which only
// affect timing) are not enforced here; they are modeled in clrt.
type Fifo struct {
	data []float32
	head int
	// Peak tracks the maximum occupancy seen, used by tests to validate the
	// channel-depth sizing rule from §4.11.
	Peak int
}

// push appends a value.
func (f *Fifo) push(v float32) {
	f.data = append(f.data, v)
	if n := f.occupancy(); n > f.Peak {
		f.Peak = n
	}
}

// fifoCompactMin is the head position below which Pop never compacts: tiny
// queues churn too fast for the copy to pay off.
const fifoCompactMin = 64

// pop removes and returns the oldest value.
func (f *Fifo) pop() (float32, bool) {
	if f.head >= len(f.data) {
		return 0, false
	}
	v := f.data[f.head]
	f.head++
	if f.head == len(f.data) {
		f.data = f.data[:0]
		f.head = 0
	} else if f.head >= fifoCompactMin && f.head > len(f.data)/2 {
		// Compact: without this, a steady-state producer/consumer pair (a
		// long batch run) appends forever while head chases the tail, and the
		// slice retains every value ever pushed. Shifting the live window to
		// the front bounds capacity to ~2x the peak occupancy.
		n := copy(f.data, f.data[f.head:])
		f.data = f.data[:n]
		f.head = 0
	}
	return v, true
}

// backingCap returns the capacity of the backing slice (tests assert the
// compaction rule keeps it bounded across arbitrarily long push/pop
// sequences).
func (f *Fifo) backingCap() int { return cap(f.data) }

// occupancy returns the number of values queued.
func (f *Fifo) occupancy() int { return len(f.data) - f.head }

// Machine holds buffer and channel bindings for kernel execution.
type Machine struct {
	bufs  map[*ir.Buffer][]float32
	chans map[*ir.Channel]*Fifo
	// compiled caches compiled kernels: folded deployments invoke the same
	// kernel dozens of times per image, and a host session reuses the
	// machine across images so every kernel compiles exactly once per
	// worker.
	compiled map[*ir.Kernel]*compiledKernel
	// tier selects the execution engine (tier.go); stats, when set, counts
	// cache and lowering events (shared across a deployment's workers).
	tier  Tier
	stats *ExecStats
}

// NewMachine returns an empty machine on the vector tier.
func NewMachine() *Machine {
	return &Machine{
		bufs:     map[*ir.Buffer][]float32{},
		chans:    map[*ir.Channel]*Fifo{},
		compiled: map[*ir.Kernel]*compiledKernel{},
	}
}

// allocFor services an ir.Alloc: if the buffer already holds a binding with
// enough capacity (the previous image's), it is truncated and zeroed in
// place; otherwise a fresh slice is allocated. This is what turns the
// per-image allocation storm of kernel-local scratchpads into a steady state.
func (m *Machine) allocFor(b *ir.Buffer, n int64) {
	if old := m.bufs[b]; int64(cap(old)) >= n {
		s := old[:n]
		clear(s)
		m.bufs[b] = s
		return
	}
	m.bufs[b] = make([]float32, n)
}

// ResetChannels clears every channel FIFO while keeping the backing storage,
// so the next image of a batch reuses the same capacity instead of growing
// fresh queues. Peak occupancy tracking is preserved across the reset.
func (m *Machine) ResetChannels() {
	for _, f := range m.chans {
		f.data = f.data[:0]
		f.head = 0
	}
}

// Bind attaches data to a buffer (typically a kernel argument).
func (m *Machine) Bind(b *ir.Buffer, data []float32) { m.bufs[b] = data }

// Buffer returns the data bound to b, or nil.
func (m *Machine) Buffer(b *ir.Buffer) []float32 { return m.bufs[b] }

// Channel returns (allocating if needed) the FIFO for ch.
func (m *Machine) Channel(ch *ir.Channel) *Fifo {
	f, ok := m.chans[ch]
	if !ok {
		f = &Fifo{}
		m.chans[ch] = f
	}
	return f
}

// Run executes kernel k with the given scalar-argument bindings. Global
// argument buffers must be bound beforehand; local/private allocations are
// created automatically. Returns an error on any fault a real OpenCL run
// would surface (out-of-bounds access, read from empty channel, unbound
// argument). Execution goes through the engine the machine's tier selects:
// the closure compiler (compile.go) with its three nest lowerings — whole
// nests (gemm.go, window.go), pad nests (pad.go) and plain copies (copy.go)
// — or the tree-walking interpreter. runInterp is kept as a cross-checking
// oracle.
func (m *Machine) Run(k *ir.Kernel, scalars map[*ir.Var]int64) (err error) {
	if m.tier == TierInterp {
		return m.runInterp(k, scalars)
	}
	defer func() {
		if r := recover(); r != nil {
			err = recoverRunErr(k.Name, r)
		}
	}()
	if err := m.precheck(k, scalars); err != nil {
		return err
	}
	ck, ok := m.compiled[k]
	if ok {
		if m.stats != nil {
			m.stats.CacheHits.Add(1)
		}
	} else {
		if m.stats != nil {
			m.stats.CacheMisses.Add(1)
		}
		c := &compiler{m: m, slots: map[*ir.Var]int{}, bufSlots: map[*ir.Buffer]int{}, kernel: k,
			lower: true}
		// Reserve scalar-argument slots before compiling the body.
		for _, v := range k.ScalarArgs {
			c.slot(v)
		}
		run := c.stmtFn(k.Body)
		ck = &compiledKernel{run: run, slots: c.slots, nSlots: c.nSlots, nBufs: len(c.bufSlots)}
		if m.stats != nil {
			m.stats.VectorLoops.Add(c.nVector)
			m.stats.FallbackLoops.Add(c.nFallback)
			m.stats.GemmLoops.Add(c.nGemm)
			m.stats.WindowLoops.Add(c.nWindow)
		}
		m.compiled[k] = ck
	}
	e := ck.env
	if e == nil {
		e = &cenv{ints: make([]int64, ck.nSlots), bufs: make([][]float32, ck.nBufs), m: m}
		ck.env = e
	} else {
		// Bindings may have changed since the last run; drop the cached
		// buffer resolutions. Int slots need no reset: loop variables and
		// scalar arguments are written before every read.
		clear(e.bufs)
	}
	for _, v := range k.ScalarArgs {
		e.ints[ck.slots[v]] = scalars[v]
	}
	ck.run(e)
	return nil
}

// runInterp executes k on the tree-walking interpreter (identical semantics
// to Run; used by tests to cross-check the compiler).
func (m *Machine) runInterp(k *ir.Kernel, scalars map[*ir.Var]int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoverRunErr(k.Name, r)
		}
	}()
	if err := m.precheck(k, scalars); err != nil {
		return err
	}
	env := &env{m: m, vars: map[*ir.Var]int64{}}
	for _, v := range k.ScalarArgs {
		env.vars[v] = scalars[v]
	}
	env.exec(k.Body)
	return nil
}

// precheck validates bindings and buffer sizes before execution.
func (m *Machine) precheck(k *ir.Kernel, scalars map[*ir.Var]int64) error {
	for _, b := range k.Args {
		if m.bufs[b] == nil {
			return fmt.Errorf("kernel %s: argument buffer %s not bound", k.Name, b.Name)
		}
	}
	env := &env{m: m, vars: map[*ir.Var]int64{}}
	for _, v := range k.ScalarArgs {
		val, ok := scalars[v]
		if !ok {
			return fmt.Errorf("kernel %s: scalar argument %s not bound", k.Name, v.Name)
		}
		env.vars[v] = val
	}
	// Verify argument buffer sizes against (possibly symbolic) shapes.
	for _, b := range k.Args {
		want := env.bufLen(b)
		if int64(len(m.bufs[b])) < want {
			return fmt.Errorf("kernel %s: buffer %s bound with %d elems, shape needs %d", k.Name, b.Name, len(m.bufs[b]), want)
		}
	}
	return nil
}

// RunGraph interprets a set of kernels in the given order, which must be a
// topological order of the channel dataflow (producers first). This mirrors
// the functional outcome of concurrent pipelined execution.
func (m *Machine) RunGraph(ks []*ir.Kernel, scalars map[*ir.Var]int64) error {
	for _, k := range ks {
		if err := m.Run(k, scalars); err != nil {
			return err
		}
	}
	// A finished pipelined pass must drain every channel; leftovers mean a
	// producer/consumer count mismatch (a hang on hardware).
	for ch, f := range m.chans {
		if f.occupancy() != 0 {
			return &DeadlockError{Channel: ch.Name, Undrained: f.occupancy()}
		}
	}
	return nil
}

type env struct {
	m    *Machine
	vars map[*ir.Var]int64
}

func (e *env) bufLen(b *ir.Buffer) int64 {
	n := int64(1)
	for _, d := range b.Shape {
		n *= e.evalI(d)
	}
	return n
}

func (e *env) offset(b *ir.Buffer, idx []ir.Expr) int64 {
	off := int64(0)
	for i, ix := range idx {
		dim := e.evalI(b.Shape[i])
		x := e.evalI(ix)
		if x < 0 || x >= dim {
			panic(fmt.Sprintf("index %d out of bounds [0,%d) in dim %d of %s", x, dim, i, b.Name))
		}
		off = off*dim + x
	}
	return off
}

func (e *env) exec(s ir.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ir.Block:
		for _, c := range x.Stmts {
			e.exec(c)
		}
	case *ir.Alloc:
		e.m.allocFor(x.Buf, e.bufLen(x.Buf))
	case *ir.For:
		n := e.evalI(x.Extent)
		for i := int64(0); i < n; i++ {
			e.vars[x.Var] = i
			e.exec(x.Body)
		}
		delete(e.vars, x.Var)
	case *ir.Store:
		data := e.m.bufs[x.Buf]
		if data == nil {
			panic(fmt.Sprintf("store to unbound buffer %s", x.Buf.Name))
		}
		data[e.offset(x.Buf, x.Index)] = e.evalF(x.Value)
	case *ir.ChannelWrite:
		e.m.Channel(x.Ch).push(e.evalF(x.Value))
	case *ir.IfThen:
		if e.evalI(x.Cond) != 0 {
			e.exec(x.Then)
		} else if x.Else != nil {
			e.exec(x.Else)
		}
	default:
		panic(fmt.Sprintf("unknown stmt %T", s))
	}
}

func (e *env) evalI(x ir.Expr) int64 {
	switch v := x.(type) {
	case *ir.IntImm:
		return v.Value
	case *ir.Var:
		val, ok := e.vars[v]
		if !ok {
			panic(fmt.Sprintf("unbound variable %s", v.Name))
		}
		return val
	case *ir.Binary:
		a, b := e.evalI(v.A), e.evalI(v.B)
		switch v.Op {
		case ir.Add:
			return a + b
		case ir.Sub:
			return a - b
		case ir.Mul:
			return a * b
		case ir.Div:
			return a / b
		case ir.Mod:
			return a % b
		case ir.MaxOp:
			if a > b {
				return a
			}
			return b
		case ir.MinOp:
			if a < b {
				return a
			}
			return b
		case ir.LT:
			return b2i(a < b)
		case ir.GE:
			return b2i(a >= b)
		case ir.EQ:
			return b2i(a == b)
		case ir.And:
			return b2i(a != 0 && b != 0)
		}
	case *ir.Select:
		if e.evalI(v.Cond) != 0 {
			return e.evalI(v.A)
		}
		return e.evalI(v.B)
	}
	panic(fmt.Sprintf("not an int expr: %T %v", x, x))
}

func (e *env) evalF(x ir.Expr) float32 {
	switch v := x.(type) {
	case *ir.FloatImm:
		return float32(v.Value)
	case *ir.IntImm:
		return float32(v.Value)
	case *ir.Load:
		data := e.m.bufs[v.Buf]
		if data == nil {
			panic(fmt.Sprintf("load from unbound buffer %s", v.Buf.Name))
		}
		return data[e.offset(v.Buf, v.Index)]
	case *ir.ChannelRead:
		val, ok := e.m.Channel(v.Ch).pop()
		if !ok {
			panic(deadlockPanic{channel: v.Ch.Name})
		}
		return val
	case *ir.Binary:
		a, b := e.evalF(v.A), e.evalF(v.B)
		switch v.Op {
		case ir.Add:
			return a + b
		case ir.Sub:
			return a - b
		case ir.Mul:
			return a * b
		case ir.Div:
			return a / b
		case ir.MaxOp:
			return float32(math.Max(float64(a), float64(b)))
		case ir.MinOp:
			return float32(math.Min(float64(a), float64(b)))
		}
		panic(fmt.Sprintf("op %s not valid on floats", v.Op))
	case *ir.Call:
		switch v.Fn {
		case "exp":
			return float32(math.Exp(float64(e.evalF(v.Args[0]))))
		case "sqrt":
			return float32(math.Sqrt(float64(e.evalF(v.Args[0]))))
		case "max":
			return float32(math.Max(float64(e.evalF(v.Args[0])), float64(e.evalF(v.Args[1]))))
		case "min":
			return float32(math.Min(float64(e.evalF(v.Args[0])), float64(e.evalF(v.Args[1]))))
		}
		panic(fmt.Sprintf("unknown intrinsic %q", v.Fn))
	case *ir.Select:
		if e.evalI(v.Cond) != 0 {
			return e.evalF(v.A)
		}
		return e.evalF(v.B)
	}
	panic(fmt.Sprintf("not a float expr: %T %v", x, x))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
