package aoc

// Compile-result memoization. A design-space explorer compiles hundreds of
// designs whose kernel sets overlap heavily: every candidate shares the
// depthwise/dense/pad/pool/softmax kernels verbatim, and each ConvSched
// appears in many candidates (the search is a cross product of per-signature
// tilings). Re-running Analyze on structurally identical kernels dominates
// exploration time, so CompileCached keys each per-kernel analysis on a
// canonical structural fingerprint and reuses the KernelModel.
//
// Concurrency: CompileCache is safe for concurrent use. Each distinct
// fingerprint is analyzed exactly once (duplicate concurrent requests wait on
// the first via sync.Once), which also makes the hit/miss counters
// deterministic for a deterministic multiset of lookups, independent of
// worker interleaving: entry creation happens under the shard lock, so
// exactly one lookup per fingerprint counts as a miss. The cached
// *KernelModel is shared across designs; this is sound because a KernelModel
// is immutable after Analyze returns — Cycles, trafficBytes and TimeUS are
// pure functions of the model and the bindings.
//
// The entry map is sharded across cacheShards independently locked segments
// keyed on a hash of the kernel fingerprint. On a warm cache a lookup is a
// fingerprint render plus one short critical section; with a single mutex the
// guided explorer's evaluation workers serialize on that section at high
// worker counts (every worker fingerprints every kernel of every candidate),
// so the shards keep the hot path contention-free while preserving the
// exactly-once analysis guarantee per fingerprint (each fingerprint maps to
// exactly one shard).

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/fpga"
	"repro/internal/ir"
)

// cacheShards is the number of independently locked cache segments. 32 is
// comfortably above any worker count the explorer runs with, and small enough
// that Len's full sweep stays trivial.
const cacheShards = 32

// CompileCache memoizes per-kernel Analyze results across designs. The zero
// value is not usable; construct with NewCompileCache. A nil *CompileCache is
// accepted everywhere and disables memoization.
type CompileCache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	m    *KernelModel
	err  error
}

// NewCompileCache returns an empty thread-safe compile cache.
func NewCompileCache() *CompileCache {
	c := &CompileCache{}
	for i := range c.shards {
		c.shards[i].entries = map[string]*cacheEntry{}
	}
	return c
}

// shardFor maps a fingerprint to its shard with FNV-1a; any well-mixed hash
// works, the only requirement is that equal keys always land on the same
// shard so the exactly-once analysis guarantee holds.
func shardFor(key string) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return uint32(h % cacheShards)
}

// Stats returns the cumulative hit/miss counters. Nil-safe.
func (c *CompileCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// size returns the number of distinct kernels cached. Nil-safe.
func (c *CompileCache) size() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// analyze returns the memoized Analyze result for the kernel, computing it
// (exactly once per fingerprint) on a miss. A nil cache analyzes directly.
func (c *CompileCache) analyze(k *ir.Kernel, board *fpga.Board, opts Options) (*KernelModel, error) {
	if c == nil {
		return Analyze(k, board, opts)
	}
	key := fingerprint(k, board, opts)
	sh := &c.shards[shardFor(key)]
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		e = &cacheEntry{}
		sh.entries[key] = e
	}
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.m, e.err = Analyze(k, board, opts) })
	return e.m, e.err
}

// fingerprint renders a canonical structural key for a kernel compilation:
// everything Analyze reads — board, compiler options, kernel name and autorun
// flag, scalar args, argument buffer metadata (scope, element type, shape
// expressions, the ExplicitStrides flag that drives the §5.3 alignment
// behaviour), and the full loop/statement tree with unroll marks (which also
// covers allocs, channels and every buffer/var reference). Two kernels with
// equal fingerprints produce identical KernelModels. Buffer and channel
// identity is represented by name, which the topi generators keep unique
// within a kernel.
//
// The key is built by a direct byte-appending IR walk rather than ir.Dump:
// the explorer fingerprints every kernel of every candidate, so on a warm
// cache this is the whole cost of a lookup and must stay well under the cost
// of Analyze itself.
func fingerprint(k *ir.Kernel, board *fpga.Board, opts Options) string {
	f := fingerprinter{buf: make([]byte, 0, 1<<12)}
	f.str(board.Name)
	f.bools(opts.FPRelaxed, opts.FPC, opts.Int8, k.Autorun)
	f.str(k.Name)
	for _, v := range k.ScalarArgs {
		f.str(v.Name)
	}
	for _, buf := range k.Args {
		f.buffer(buf)
	}
	f.stmt(k.Body)
	return string(f.buf)
}

// fingerprinter serializes IR into a compact canonical byte form. Each node
// is emitted as a one-byte tag followed by its fields, with strings
// length-prefixed so distinct trees can never serialize identically.
type fingerprinter struct{ buf []byte }

func (f *fingerprinter) str(s string) {
	f.buf = strconv.AppendInt(f.buf, int64(len(s)), 10)
	f.buf = append(f.buf, ':')
	f.buf = append(f.buf, s...)
}

func (f *fingerprinter) int(n int64) {
	f.buf = strconv.AppendInt(f.buf, n, 10)
	f.buf = append(f.buf, ';')
}

func (f *fingerprinter) bools(bs ...bool) {
	for _, b := range bs {
		if b {
			f.buf = append(f.buf, '1')
		} else {
			f.buf = append(f.buf, '0')
		}
	}
}

func (f *fingerprinter) buffer(b *ir.Buffer) {
	f.buf = append(f.buf, 'B')
	f.str(b.Name)
	f.int(int64(b.Scope))
	f.int(int64(b.Elem))
	f.bools(b.ExplicitStrides)
	f.int(int64(len(b.Shape)))
	for _, d := range b.Shape {
		f.expr(d)
	}
}

func (f *fingerprinter) stmt(s ir.Stmt) {
	switch x := s.(type) {
	case nil:
		f.buf = append(f.buf, '_')
	case *ir.Block:
		f.buf = append(f.buf, '{')
		for _, c := range x.Stmts {
			f.stmt(c)
		}
		f.buf = append(f.buf, '}')
	case *ir.Alloc:
		f.buf = append(f.buf, 'A')
		f.buffer(x.Buf)
	case *ir.For:
		f.buf = append(f.buf, 'F')
		f.str(x.Var.Name)
		f.int(int64(x.Unroll))
		f.expr(x.Extent)
		f.stmt(x.Body)
	case *ir.Store:
		f.buf = append(f.buf, '=')
		f.str(x.Buf.Name)
		f.int(int64(len(x.Index)))
		for _, e := range x.Index {
			f.expr(e)
		}
		f.expr(x.Value)
	case *ir.ChannelWrite:
		f.buf = append(f.buf, 'W')
		f.str(x.Ch.Name)
		f.int(int64(x.Ch.Depth))
		f.expr(x.Value)
	case *ir.IfThen:
		f.buf = append(f.buf, '?')
		f.expr(x.Cond)
		f.stmt(x.Then)
		f.stmt(x.Else)
	default:
		// New statement kinds must be added here before they can be cached.
		panic("aoc: fingerprint: unknown stmt")
	}
}

func (f *fingerprinter) expr(e ir.Expr) {
	switch x := e.(type) {
	case *ir.IntImm:
		f.buf = append(f.buf, 'i')
		f.int(x.Value)
	case *ir.FloatImm:
		f.buf = append(f.buf, 'f')
		f.buf = strconv.AppendUint(f.buf, math.Float64bits(x.Value), 16)
		f.buf = append(f.buf, ';')
	case *ir.Var:
		f.buf = append(f.buf, 'v')
		f.str(x.Name)
		f.bools(x.Param)
	case *ir.Binary:
		f.buf = append(f.buf, 'b')
		f.int(int64(x.Op))
		f.expr(x.A)
		f.expr(x.B)
	case *ir.Call:
		f.buf = append(f.buf, 'c')
		f.str(x.Fn)
		f.int(int64(len(x.Args)))
		for _, a := range x.Args {
			f.expr(a)
		}
	case *ir.Load:
		f.buf = append(f.buf, 'l')
		f.str(x.Buf.Name)
		f.int(int64(len(x.Index)))
		for _, i := range x.Index {
			f.expr(i)
		}
	case *ir.ChannelRead:
		f.buf = append(f.buf, 'r')
		f.str(x.Ch.Name)
		f.int(int64(x.Ch.Depth))
	case *ir.Select:
		f.buf = append(f.buf, 's')
		f.expr(x.Cond)
		f.expr(x.A)
		f.expr(x.B)
	default:
		// New expression kinds must be added here before they can be cached.
		panic("aoc: fingerprint: unknown expr")
	}
}
