package sim

// Execution tiers. The machine has three engines with bit-identical
// semantics:
//
//	TierInterp  — tree-walking interpreter (interp.go); the oracle.
//	TierClosure — closure compiler (compile.go); per-element closure calls.
//	TierVector  — closure compiler + affine loop-nest vectorizer
//	              (vector.go); recognized nests run as flat slice
//	              microkernels, everything else falls back per-loop to the
//	              closure tier.
//
// The default is TierVector; tests cross-check it against RunInterp.

import (
	"fmt"
	"sync/atomic"
)

// Tier selects which engine Machine.Run uses.
type Tier int32

const (
	TierVector Tier = iota
	TierClosure
	TierInterp
)

func (t Tier) String() string {
	switch t {
	case TierVector:
		return "vector"
	case TierClosure:
		return "closure"
	case TierInterp:
		return "interp"
	}
	return fmt.Sprintf("tier(%d)", int32(t))
}

// ParseTier parses a -exec flag value.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "vector":
		return TierVector, nil
	case "closure":
		return TierClosure, nil
	case "interp":
		return TierInterp, nil
	}
	return 0, fmt.Errorf("sim: unknown execution tier %q (want interp, closure or vector)", s)
}

// defaultTier seeds the tier of newly created machines; the CLI's -exec flag
// sets it once at startup. Atomic because machines are created from batch
// workers.
var defaultTier atomic.Int32

// SetDefaultTier sets the tier new machines start with.
func SetDefaultTier(t Tier) { defaultTier.Store(int32(t)) }

// DefaultTier returns the tier new machines start with.
func DefaultTier() Tier { return Tier(defaultTier.Load()) }

// SetTier switches this machine's engine. Compiled programs are cached per
// tier, so switching back and forth does not recompile.
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
	// VectorLoops / FallbackLoops are compile-time counts: loop nests
	// lowered to microkernels vs innermost compute loops left on the
	// closure tier (every vectorization bailout is countable).
	VectorLoops   atomic.Int64
	FallbackLoops atomic.Int64
	// VectorRuns / GuardBailouts are run-time counts: microkernel
	// executions vs nests whose pre-loop span check failed (out-of-bounds
	// or aliasing) and were re-run on the scalar closures.
	VectorRuns    atomic.Int64
	GuardBailouts atomic.Int64
	// GemmLoops is a compile-time count of whole nests recognized and
	// lowered onto cpuref.Gemm (gemm.go); GemmRuns / GemmBailouts are the
	// run-time executions vs stride-guard failures replayed on the twin.
	GemmLoops    atomic.Int64
	GemmRuns     atomic.Int64
	GemmBailouts atomic.Int64
}

// StatsSnapshot is a plain-value copy of ExecStats.
type StatsSnapshot struct {
	CacheHits, CacheMisses            int64
	VectorLoops, FallbackLoops        int64
	VectorRuns, GuardBailouts         int64
	GemmLoops, GemmRuns, GemmBailouts int64
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
	}
}

// SetStats attaches a stats sink to the machine (shared across the machines
// of a deployment). nil disables counting.
func (m *Machine) SetStats(s *ExecStats) { m.stats = s }
