package sim_test

// Run under `go test -race ./internal/sim/`: RunBatch-style concurrency.
// Worker machines are private, but the ExecStats sink is shared across all of
// them, and the stats are read (Snapshot) while workers are still running —
// exactly what the host's metrics drain does.

import (
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/topi"
)

func TestSharedStatsUnderConcurrency(t *testing.T) {
	op, err := topi.Conv2D(topi.ConvSpec{Name: "rc", C1: 3, H: 10, W: 10, C2: 4, F: 3, S: 1, Relu: true, Bias: true},
		topi.OptSched(4, 2, 1), topi.ConvIO{})
	if err != nil {
		t.Fatal(err)
	}
	stats := &sim.ExecStats{}
	const workers = 8
	const iters = 25

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			// One warm machine per worker, like a host session; stats are
			// the shared state under test.
			m := sim.NewMachine()
			m.SetTier(sim.TierVector)
			m.SetStats(stats)
			in := seeded(seed, 3, 10, 10)
			wt := seeded(seed+1, 4, 3, 3, 3)
			b := seeded(seed+2, 4)
			m.Bind(op.In, in.Data)
			m.Bind(op.Weights, wt.Data)
			m.Bind(op.Bias, b.Data)
			m.Bind(op.Out, make([]float32, 4*8*8))
			for i := 0; i < iters; i++ {
				if err := m.Run(op.Kernel, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w) * 17)
	}
	// Concurrent metrics drain, as the host does mid-batch.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = stats.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := stats.Snapshot()
	// The conv nest now lowers whole onto the GEMM tier; either counter
	// proves the vector engine ran across workers.
	if s.VectorRuns+s.GemmRuns == 0 || s.CacheMisses == 0 {
		t.Fatalf("expected vector/GEMM activity across workers, got %+v", s)
	}
}

// TestCompiledCacheSingleMachineSequential pins down the documented contract:
// the compiled-kernel cache is per-machine and machines are not safe for
// concurrent Run; workers get their own machine and share only stats.
// This test exists so the contract is written down next to the race tests.
func TestCompiledCacheSingleMachineSequential(t *testing.T) {
	src := ir.NewBuffer("s", ir.Global, 16)
	dst := ir.NewBuffer("d", ir.Global, 16)
	i := ir.V("i")
	kern := &ir.Kernel{Name: "seq", Args: []*ir.Buffer{src, dst},
		Body: ir.Loop(i, 16, &ir.Store{Buf: dst, Index: []ir.Expr{i}, Value: &ir.Load{Buf: src, Index: []ir.Expr{i}}})}
	st := &sim.ExecStats{}
	m := sim.NewMachine()
	m.SetStats(st)
	m.Bind(src, make([]float32, 16))
	m.Bind(dst, make([]float32, 16))
	for r := 0; r < 10; r++ {
		if err := m.Run(kern, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Snapshot(); s.CacheMisses != 1 || s.CacheHits != 9 {
		t.Fatalf("cache contract: want 1 miss + 9 hits, got %+v", s)
	}
}
