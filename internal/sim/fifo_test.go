package sim

import (
	"testing"

	"repro/internal/ir"
)

// TestFifoBoundedRetention is the regression test for the unbounded-retention
// bug: head used to advance while data was never compacted, so a steady-state
// producer/consumer pair (a long batch run streaming images through a
// pipeline) held every value ever pushed. The compaction rule must keep the
// backing capacity proportional to the peak occupancy, not the total traffic.
func TestFifoBoundedRetention(t *testing.T) {
	f := &Fifo{}
	const occupancy = 16
	for i := 0; i < occupancy; i++ {
		f.push(float32(i))
	}
	// A million interleaved push/pop cycles at constant occupancy: without
	// compaction the slice grows to ~1e6 entries.
	next := float32(occupancy)
	want := float32(0)
	for i := 0; i < 1_000_000; i++ {
		f.push(next)
		next++
		v, ok := f.pop()
		if !ok {
			t.Fatalf("cycle %d: unexpected empty fifo", i)
		}
		if v != want {
			t.Fatalf("cycle %d: FIFO order broken: got %v, want %v", i, v, want)
		}
		want++
	}
	if f.occupancy() != occupancy {
		t.Fatalf("occupancy drifted: %d", f.occupancy())
	}
	// Capacity bound: compaction triggers once head passes both the minimum
	// and half the slice, so the slice never exceeds ~2x(occupancy+minimum).
	if limit := 4 * (occupancy + fifoCompactMin); f.backingCap() > limit {
		t.Fatalf("fifo retained %d cap after 1e6 cycles at occupancy %d (limit %d)", f.backingCap(), occupancy, limit)
	}
	if f.Peak != occupancy+1 {
		t.Fatalf("peak tracking broken: %d", f.Peak)
	}
}

// TestFifoCompactionPreservesDrainSemantics checks the full-drain fast path
// and order across mixed burst sizes.
func TestFifoCompactionPreservesDrainSemantics(t *testing.T) {
	f := &Fifo{}
	next, want := float32(0), float32(0)
	for round := 0; round < 1000; round++ {
		push := 1 + round%97
		for i := 0; i < push; i++ {
			f.push(next)
			next++
		}
		pop := push
		if round%3 == 0 {
			pop = f.occupancy() // full drain
		}
		for i := 0; i < pop; i++ {
			v, ok := f.pop()
			if !ok {
				t.Fatalf("round %d: premature empty", round)
			}
			if v != want {
				t.Fatalf("round %d: got %v, want %v", round, v, want)
			}
			want++
		}
	}
	for f.occupancy() > 0 {
		v, _ := f.pop()
		if v != want {
			t.Fatalf("drain: got %v, want %v", v, want)
		}
		want++
	}
	if _, ok := f.pop(); ok {
		t.Fatal("pop from empty fifo succeeded")
	}
}

// TestMachineAllocReuse asserts the arena contract: re-running a kernel with
// an Alloc statement on the same machine reuses the previous binding (zeroed)
// instead of allocating, and ResetChannels keeps FIFO storage.
func TestMachineAllocReuse(t *testing.T) {
	scratch := ir.NewBuffer("scratch", ir.Private, 128)
	out := ir.NewBuffer("out", ir.Global, 128)
	i := ir.V("i")
	k := &ir.Kernel{Name: "arena", Args: []*ir.Buffer{out}, Body: ir.Seq(
		&ir.Alloc{Buf: scratch},
		ir.Loop(i, 128, &ir.Store{Buf: scratch, Index: []ir.Expr{i},
			Value: ir.AddE(&ir.Load{Buf: scratch, Index: []ir.Expr{i}}, ir.CFloat(1))}),
		ir.Loop(i, 128, &ir.Store{Buf: out, Index: []ir.Expr{i},
			Value: &ir.Load{Buf: scratch, Index: []ir.Expr{i}}}),
	)}
	m := NewMachine()
	m.Bind(out, make([]float32, 128))
	if err := m.Run(k, nil); err != nil {
		t.Fatal(err)
	}
	first := m.Buffer(scratch)
	if err := m.Run(k, nil); err != nil {
		t.Fatal(err)
	}
	if &first[0] != &m.Buffer(scratch)[0] {
		t.Fatal("Alloc did not reuse the previous binding on a warm machine")
	}
	// The scratch must have been zeroed between runs: each run writes 1s,
	// not accumulated 2s.
	for idx, v := range m.Buffer(out) {
		if v != 1 {
			t.Fatalf("scratch not zeroed on reuse: out[%d] = %v", idx, v)
		}
	}
}
