package fleet

// Pipeline-parallel sharding: a folded net split at a cut layer across two
// boards. Stage A runs layers [0, cut) on board A, the cut activation
// crosses PCIe (device A readback + device B write, the Appendix A model),
// and stage B runs layers [cut, n) on board B. Consecutive batches overlap:
// each stage keeps its own busy horizon, so steady-state throughput is
// bounded by the slower stage plus transfer, not the sum — the point of
// sharding a net too big (or too slow) for one board.
//
// Functional execution composes the CPU reference over the two rebased
// half-chains, which keeps the bit-identity contract trivially exact and
// also proves the split itself is semantics-preserving (the shard test
// checks half∘half against the unsplit chain). Timing is analytic: each
// half is built as a real folded deployment on its board and contributes
// its modeled forward time.

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

// shardExec is the two-stage pipeline executor. Each stage owns a busy
// horizon; a batch occupies stage A, then the PCIe hop, then stage B, and
// the next batch may enter stage A as soon as it frees.
type shardExec struct {
	headLayers, tailLayers []*relay.Layer
	tAUS, tBUS             float64 // per-image modeled stage times
	cutBytes               int     // cut activation size per image
	pcieA, pcieB           fpga.PCIeModel
	busyA, busyB           float64
}

// newShardExec splits net's chain (auto-balancing the cut unless forced),
// builds each half as a folded deployment on its board for modeled timing,
// and prices the inter-board hop from the cut activation size.
func newShardExec(net string, layers []*relay.Layer, boardA, boardB *fpga.Board, forceCut int) (*shardExec, error) {
	cut := forceCut
	if cut == 0 {
		var err error
		cut, err = pickCut(layers)
		if err != nil {
			return nil, err
		}
	}
	head, tail, err := splitLayers(layers, cut)
	if err != nil {
		return nil, err
	}
	buildTime := func(half []*relay.Layer, board *fpga.Board) (float64, error) {
		fcfg, err := host.FoldedConfigFor(net, board)
		if err != nil {
			return 0, fmt.Errorf("fleet: shard stage for %s on %s: %w", net, board.Name, err)
		}
		f, err := host.BuildFolded(half, fcfg, board, aoc.DefaultOptions)
		if err != nil {
			return 0, err
		}
		return f.ForwardTimeUS()
	}
	tA, err := buildTime(head, boardA)
	if err != nil {
		return nil, err
	}
	tB, err := buildTime(tail, boardB)
	if err != nil {
		return nil, err
	}
	bytes := 4
	for _, dim := range head[len(head)-1].OutShape {
		bytes *= dim
	}
	return &shardExec{
		headLayers: head, tailLayers: tail,
		tAUS: tA, tBUS: tB, cutBytes: bytes,
		pcieA: boardA.PCIe, pcieB: boardB.PCIe,
	}, nil
}

// xferUS prices moving n cut activations between the boards: device A
// readback plus device B write, each one command (latency) plus bandwidth.
func (e *shardExec) xferUS(n int) float64 {
	return e.pcieA.ReadTimeUS(n*e.cutBytes) + e.pcieB.WriteTimeUS(n*e.cutBytes)
}

// availableAt is stage A's next free slot: the pipeline admits a new batch
// as soon as its first stage frees, which is what lets batches overlap.
func (e *shardExec) availableAt() float64 { return e.busyA }

// estUS is the one-image pipeline latency (routing cost of the device).
func (e *shardExec) estUS() float64 { return e.tAUS + e.xferUS(1) + e.tBUS }

// advanceTiming books one batch of n images through both stage horizons
// and returns its service window (separated from run so timing is testable
// without functional execution).
func (e *shardExec) advanceTiming(n int, readyUS, stretch float64) (startUS, endUS float64) {
	aStart := readyUS
	if e.busyA > aStart {
		aStart = e.busyA
	}
	aEnd := aStart + float64(n)*e.tAUS*stretch
	e.busyA = aEnd
	bStart := aEnd + e.xferUS(n)
	if e.busyB > bStart {
		bStart = e.busyB
	}
	bEnd := bStart + float64(n)*e.tBUS*stretch
	e.busyB = bEnd
	return aStart, bEnd
}

func (e *shardExec) run(inputs []*tensor.Tensor, readyUS float64, _ int64, stretch float64) (*execResult, error) {
	aStart, bEnd := e.advanceTiming(len(inputs), readyUS, stretch)

	outs := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		mid, err := relay.Execute(e.headLayers, in)
		if err != nil {
			return nil, err
		}
		out, err := relay.Execute(e.tailLayers, mid)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return &execResult{outs: outs, startUS: aStart, endUS: bEnd}, nil
}
