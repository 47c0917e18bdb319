package sim

// Execution tiers. The machine has two engines with bit-identical
// semantics:
//
//	TierVector — closure compiler (compile.go) with three nest
//	             lowerings: whole nests (gemm.go, window.go) run as
//	             cpuref.Gemm calls or strided-window kernels, pad nests
//	             (pad.go) and plain copies (copy.go) as row fills and row
//	             copies; everything else runs on per-element closures. The
//	             default and the only production engine.
//	TierInterp — tree-walking interpreter (interp.go); the oracle tests
//	             select per machine with SetTier.

import (
	"fmt"
	"sync/atomic"
)

// Tier selects which engine Machine.Run uses.
type Tier int32

const (
	TierVector Tier = iota
	TierInterp
)

func (t Tier) String() string {
	switch t {
	case TierVector:
		return "vector"
	case TierInterp:
		return "interp"
	}
	return fmt.Sprintf("tier(%d)", int32(t))
}

// SetTier switches this machine's engine. The interpreter never compiles,
// so switching back to the vector tier reuses its cached programs.
func (m *Machine) SetTier(t Tier) { m.tier = t }

// GetTier returns the machine's current engine.
func (m *Machine) GetTier() Tier { return m.tier }

// ExecStats aggregates compile- and run-time tier counters across the
// machines that share it (all workers of a batch deployment). All fields are
// atomic; sim does not depend on internal/trace — hosts drain a snapshot
// into the metrics registry.
type ExecStats struct {
	// CacheHits / CacheMisses count compiled-kernel cache lookups in Run.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// VectorLoops / FallbackLoops are compile-time counts: copy and pad
	// nests lowered to row copies vs innermost compute loops left on the
	// closures. Replay twins count neither.
	VectorLoops   atomic.Int64
	FallbackLoops atomic.Int64
	// VectorRuns / GuardBailouts are run-time counts: copy and pad
	// executions vs entries whose pre-loop bounds or overlap check failed
	// and were replayed on the closures.
	VectorRuns    atomic.Int64
	GuardBailouts atomic.Int64
	// GemmLoops / WindowLoops are compile-time counts of whole nests
	// recognized and lowered onto cpuref.Gemm (gemm.go: matmul-shaped) or
	// onto the strided-window microkernel (window.go: every other tile
	// nest); GemmRuns / WindowRuns are their run-time executions, and
	// GemmBailouts counts the guard failures of either executor replayed on
	// the twin.
	GemmLoops    atomic.Int64
	GemmRuns     atomic.Int64
	WindowLoops  atomic.Int64
	WindowRuns   atomic.Int64
	GemmBailouts atomic.Int64
}

// StatsSnapshot is a plain-value copy of ExecStats.
type StatsSnapshot struct {
	CacheHits, CacheMisses            int64
	VectorLoops, FallbackLoops        int64
	VectorRuns, GuardBailouts         int64
	GemmLoops, GemmRuns, GemmBailouts int64
	WindowLoops, WindowRuns           int64
}

// Snapshot returns current counter values; nil-safe.
func (s *ExecStats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		CacheHits:     s.CacheHits.Load(),
		CacheMisses:   s.CacheMisses.Load(),
		VectorLoops:   s.VectorLoops.Load(),
		FallbackLoops: s.FallbackLoops.Load(),
		VectorRuns:    s.VectorRuns.Load(),
		GuardBailouts: s.GuardBailouts.Load(),
		GemmLoops:     s.GemmLoops.Load(),
		GemmRuns:      s.GemmRuns.Load(),
		GemmBailouts:  s.GemmBailouts.Load(),
		WindowLoops:   s.WindowLoops.Load(),
		WindowRuns:    s.WindowRuns.Load(),
	}
}

// SetStats attaches a stats sink to the machine (shared across the machines
// of a deployment). nil disables counting.
func (m *Machine) SetStats(s *ExecStats) { m.stats = s }
