package dse

// Exhaustive enumeration of the joint schedule space. This is the guided
// tier's ground truth: bench-dse compares the guided best against this best
// on LeNet-5 and gates the evaluation-count ratio in CI. It sweeps the
// largest shipped space too: MobileNetV1's 96 768 points on S10SX take about
// 17 s on a 2-vCPU Xeon, the compile cache serving all but 205 of 774 144
// kernel compilations.

import (
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/relay"
)

// JointResult augments Result with the joint-space geometry.
type JointResult struct {
	Result
	// SpaceSize is the total number of joint points (feasible or not).
	SpaceSize int64
	// SpaceSig identifies the space's coordinate system (board-independent).
	SpaceSig string
}

// ExploreJointWith is the exhaustive strategy: it evaluates every
// bandwidth-feasible point of the joint schedule space in deterministic
// odometer order. Unlike ExploreWith, MaxCandidates <= 0 means *unbounded*
// (evaluate the whole feasible space); a positive value truncates
// enumeration after that many reserved slots.
func ExploreJointWith(layers []*relay.Layer, net string, board *fpga.Board, opts Options) (*JointResult, error) {
	s := newSearch(layers, board, opts)
	space := BuildSpace(layers, net)
	res := &JointResult{
		Result:    Result{Board: board, Net: net},
		SpaceSize: space.size(),
		SpaceSig:  space.sig(),
	}
	// Slot assignment: enumerate feasible points up front (cheap integer
	// work), so the parallel phase has exact accounting.
	var cfgs []host.FoldedConfig
	space.enumerate(func(p Point) bool {
		if !space.feasible(p, board) {
			res.Pruned++
			res.PrunedBandwidth++
			return true
		}
		if opts.MaxCandidates > 0 && len(cfgs) >= opts.MaxCandidates {
			return false
		}
		cfgs = append(cfgs, space.Config(p))
		return true
	})
	if _, err := s.eval(cfgs); err != nil {
		return nil, err
	}
	s.finish(&res.Result)
	s.metrics.Gauge("dse.space_size").Set(float64(res.SpaceSize))
	return res, nil
}
