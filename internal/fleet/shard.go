package fleet

// Pipeline-parallel sharding: a folded net split at a cut layer across two
// boards. Stage A runs layers [0, cut) as its own folded deployment on board
// A; stage B runs layers [cut, n) as another on board B, on stage A's
// outputs. Each stage's batch engine models its own transfers, so the
// inter-board hop is stage A's readback plus stage B's write, both at the
// board's Appendix A PCIe cost. Consecutive batches overlap: each stage
// keeps its own busy horizon, so steady-state throughput is bounded by the
// slower stage, not the sum — the point of sharding a net too big (or too
// slow) for one board.

import (
	"fmt"
	"math"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// cutValid reports whether the chain can split at cut: no layer in the tail
// may reference anything before cut-1 (the cut output becomes the tail's
// network input; deeper references would need a second inter-board stream).
func cutValid(layers []*relay.Layer, cut int) bool {
	if cut < 1 || cut >= len(layers) {
		return false
	}
	ok := func(idx int) bool { return idx >= cut-1 }
	for i := cut; i < len(layers); i++ {
		l := layers[i]
		if !ok(l.In) {
			return false
		}
		if l.HasSkip && !ok(l.Skip) {
			return false
		}
		for _, idx := range l.Ins {
			if !ok(idx) {
				return false
			}
		}
	}
	return true
}

// validCuts lists every layer index the chain can split at.
func validCuts(layers []*relay.Layer) []int {
	var out []int
	for c := 1; c < len(layers); c++ {
		if cutValid(layers, c) {
			out = append(out, c)
		}
	}
	return out
}

// splitLayers splits the lowered chain at cut into two independently
// executable half-chains. The head is the original prefix; the tail is a
// rebased clone (indices shifted by -cut, with cut-1 becoming the network
// input) so relay.Execute runs it stand-alone on the head's output.
func splitLayers(layers []*relay.Layer, cut int) (head, tail []*relay.Layer, err error) {
	if !cutValid(layers, cut) {
		return nil, nil, fmt.Errorf("fleet: cannot cut %s-layer chain at %d (cross-cut reference or out of range)",
			fmt.Sprint(len(layers)), cut)
	}
	head = layers[:cut]
	tail = make([]*relay.Layer, len(layers)-cut)
	for i, l := range layers[cut:] {
		c := *l // shallow clone: weights are shared, read-only
		c.In = l.In - cut
		if l.HasSkip {
			c.Skip = l.Skip - cut
		}
		if len(l.Ins) > 0 {
			c.Ins = make([]int, len(l.Ins))
			for j, idx := range l.Ins {
				c.Ins[j] = idx - cut
			}
		}
		tail[i] = &c
	}
	return head, tail, nil
}

// chainFLOPs sums multiply+add work over a half-chain.
func chainFLOPs(layers []*relay.Layer) int64 {
	var sum int64
	for _, l := range layers {
		sum += l.FLOPs()
	}
	return sum
}

// pickCut returns the valid cut that best balances compute between the two
// halves (by FLOPs — cheap and monotone with the modeled stage times).
func pickCut(layers []*relay.Layer) (int, error) {
	cuts := validCuts(layers)
	if len(cuts) == 0 {
		return 0, fmt.Errorf("fleet: chain has no valid pipeline cut")
	}
	total := chainFLOPs(layers)
	best, bestGap := cuts[0], int64(math.MaxInt64)
	for _, c := range cuts {
		headF := chainFLOPs(layers[:c])
		gap := headF - (total - headF)
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			best, bestGap = c, gap
		}
	}
	return best, nil
}

// shardExec is the two-stage pipeline executor. A batch occupies stage A,
// then stage B from the moment A finishes; the next batch may enter stage A
// as soon as it frees.
type shardExec struct {
	a, b executor
}

// newShardExec splits cfg.Net's chain at the balanced cut and builds each
// half as a folded deployment on its board.
func newShardExec(cfg Config, layers []*relay.Layer, boardA, boardB *fpga.Board) (*shardExec, error) {
	cut, err := pickCut(layers)
	if err != nil {
		return nil, err
	}
	head, tail, err := splitLayers(layers, cut)
	if err != nil {
		return nil, err
	}
	stage := func(half []*relay.Layer, board *fpga.Board) (*simExec, error) {
		fcfg, err := host.FoldedConfigFor(cfg.Net, board)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard stage for %s on %s: %w", cfg.Net, board.Name, err)
		}
		dep, err := host.BuildFolded(half, fcfg, board, aoc.DefaultOptions)
		if err != nil {
			return nil, err
		}
		ex, err := newSimExec(dep, half[0].InShape, cfg.FaultSeed, cfg.FaultRate)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard stage for %s on %s: %w", cfg.Net, board.Name, err)
		}
		return ex, nil
	}
	a, err := stage(head, boardA)
	if err != nil {
		return nil, err
	}
	b, err := stage(tail, boardB)
	if err != nil {
		return nil, err
	}
	return &shardExec{a: a, b: b}, nil
}

// availableAt is stage A's next free slot: the pipeline admits a new batch
// as soon as its first stage frees, which is what lets batches overlap.
func (e *shardExec) availableAt() float64 { return e.a.availableAt() }

// estUS is the one-image pipeline latency (routing cost of the device).
func (e *shardExec) estUS() float64 { return e.a.estUS() + e.b.estUS() }

// run books the batch through stage A, then stage B on A's outputs. The
// result carries both stages' retries and faults, failed or not.
func (e *shardExec) run(inputs []*tensor.Tensor, readyUS float64, seq int64, stretch float64) (*execResult, error) {
	a, err := e.a.run(inputs, readyUS, seq, stretch)
	if err != nil {
		return a, err
	}
	b, err := e.b.run(a.outs, a.endUS, seq, stretch)
	b.retries += a.retries
	b.faults += a.faults
	if err == nil {
		b.startUS = a.startUS
	}
	return b, err
}
