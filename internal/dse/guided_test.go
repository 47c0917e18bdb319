package dse

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fpga"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/trace"
)

func lenetLayers(t *testing.T) []*relay.Layer {
	t.Helper()
	layers, err := relay.Lower(nn.LeNet5())
	if err != nil {
		t.Fatal(err)
	}
	return layers
}

// marshalGuided renders a GuidedResult to the canonical JSON bytes the
// determinism contract is stated over.
func marshalGuided(t *testing.T, r *GuidedResult) []byte {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestGuidedSeedDeterminismTable: fixed seed + any worker count → a
// byte-identical GuidedResult, across several seeds. Different seeds may
// take different trajectories but every one must reproduce itself exactly.
func TestGuidedSeedDeterminismTable(t *testing.T) {
	layers := lenetLayers(t)
	for _, seed := range []int64{0, 1, 7, 42} {
		var ref []byte
		var refRanked []GuidedCandidate
		for _, workers := range []int{1, 2, 8} {
			res, err := ExploreGuided(layers, "lenet5", fpga.A10, GuidedOptions{
				Options: Options{Workers: workers, MaxCandidates: 24},
				Seed:    seed,
			})
			if err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
			}
			buf := marshalGuided(t, res)
			if workers == 1 {
				ref, refRanked = buf, res.Ranked
				continue
			}
			if string(buf) != string(ref) {
				t.Fatalf("seed=%d: result bytes differ between workers=1 and workers=%d", seed, workers)
			}
			if !reflect.DeepEqual(res.Ranked, refRanked) {
				t.Fatalf("seed=%d workers=%d: rankings differ from serial", seed, workers)
			}
		}
	}
}

// TestGuidedWorkers16ByteIdentical is the acceptance criterion stated on the
// issue verbatim: Workers:16 must be byte-identical to Workers:1 on the big
// joint space.
func TestGuidedWorkers16ByteIdentical(t *testing.T) {
	layers := mobilenetLayers(t)
	run := func(workers int) []byte {
		res, err := ExploreGuided(layers, "mobilenetv1", fpga.S10SX, GuidedOptions{
			Options: Options{Workers: workers, MaxCandidates: 48},
			Seed:    1,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return marshalGuided(t, res)
	}
	if string(run(1)) != string(run(16)) {
		t.Fatal("GuidedResult bytes differ between Workers:1 and Workers:16")
	}
}

// TestGuidedMatchesExhaustiveJointLeNet: on a space small enough to sweep,
// guided search must find the global best with at least 10x fewer full
// evaluations than the exhaustive enumeration paid.
func TestGuidedMatchesExhaustiveJointLeNet(t *testing.T) {
	layers := lenetLayers(t)
	ex, err := ExploreJointWith(layers, "lenet5", fpga.A10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exBest, err := ex.Best()
	if err != nil {
		t.Fatal(err)
	}
	gd, err := ExploreGuided(layers, "lenet5", fpga.A10, GuidedOptions{
		Options: Options{MaxCandidates: 32}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gdBest, err := gd.Best()
	if err != nil {
		t.Fatal(err)
	}
	if gdBest.TimeUS != exBest.TimeUS {
		t.Fatalf("guided best %.3f us != exhaustive best %.3f us (over %d evals vs %d)",
			gdBest.TimeUS, exBest.TimeUS, gd.Evaluated, ex.Evaluated)
	}
	if ex.Evaluated < 10*gd.Evaluated {
		t.Fatalf("guided paid %d evals, exhaustive %d: want >= 10x reduction", gd.Evaluated, ex.Evaluated)
	}
	if gd.SpaceSig != ex.SpaceSig || gd.SpaceSize != ex.SpaceSize {
		t.Fatalf("tiers disagree on the space: %q/%d vs %q/%d",
			gd.SpaceSig, gd.SpaceSize, ex.SpaceSig, ex.SpaceSize)
	}
}

// TestGuidedTransferWarmStart: a search state serialized on one board must
// warm-start another board's search — the S10SX run with a quarter of the
// cold budget must do at least as well as the cold run at that same budget,
// and the state must survive a disk round-trip.
func TestGuidedTransferWarmStart(t *testing.T) {
	layers := mobilenetLayers(t)
	a10, err := ExploreGuided(layers, "mobilenetv1", fpga.A10, GuidedOptions{
		Options: Options{MaxCandidates: 48}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	state := a10.TransferState(8)
	if state.SpaceSig != a10.SpaceSig || state.Board != "A10" {
		t.Fatalf("transfer state mis-labeled: %+v", state)
	}
	if len(state.TopK) == 0 || len(state.TopK) > 8 {
		t.Fatalf("top-K length %d, want 1..8", len(state.TopK))
	}
	if len(state.Model.TimeWeights) == 0 {
		t.Fatal("transfer state carries no fitted time head")
	}

	path := filepath.Join(t.TempDir(), "a10.json")
	if err := SaveTransfer(path, state); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTransfer(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, state) {
		t.Fatal("transfer state changed across the disk round-trip")
	}

	cold, err := ExploreGuided(layers, "mobilenetv1", fpga.S10SX, GuidedOptions{
		Options: Options{MaxCandidates: 12}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ExploreGuided(layers, "mobilenetv1", fpga.S10SX, GuidedOptions{
		Options: Options{MaxCandidates: 12}, Seed: 1, Transfer: loaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	coldBest, err := cold.Best()
	if err != nil {
		t.Fatal(err)
	}
	warmBest, err := warm.Best()
	if err != nil {
		t.Fatal(err)
	}
	if warmBest.TimeUS > coldBest.TimeUS {
		t.Fatalf("warm-started best %.1f us worse than cold best %.1f us at equal budget",
			warmBest.TimeUS, coldBest.TimeUS)
	}
	// Same-board resume: a state serialized from a larger run carries its
	// best point in TopK[0], so a warm-started run seeds and re-evaluates it
	// — the resumed best can never be worse than the serialized one.
	big, err := ExploreGuided(layers, "mobilenetv1", fpga.S10SX, GuidedOptions{
		Options: Options{MaxCandidates: 64}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bigBest, err := big.Best()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ExploreGuided(layers, "mobilenetv1", fpga.S10SX, GuidedOptions{
		Options: Options{MaxCandidates: 12}, Seed: 1, Transfer: big.TransferState(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	resumedBest, err := resumed.Best()
	if err != nil {
		t.Fatal(err)
	}
	if resumedBest.TimeUS > bigBest.TimeUS {
		t.Fatalf("resumed best %.1f us worse than the serialized run's best %.1f us",
			resumedBest.TimeUS, bigBest.TimeUS)
	}

	// A state from a different space must be ignored, not crash the search.
	alien := &TransferState{Net: "other", SpaceSig: "other;space", Model: *&state.Model}
	ignored, err := ExploreGuided(layers, "mobilenetv1", fpga.S10SX, GuidedOptions{
		Options: Options{MaxCandidates: 12}, Seed: 1, Transfer: alien,
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalGuided(t, ignored)) != string(marshalGuided(t, cold)) {
		t.Fatal("mismatched-space transfer state changed the search result")
	}
}

// TestGuidedPruningCounters: the published dse.pruned_bandwidth and
// dse.pruned_route counters must equal the Result's split exactly, and the
// split must account for every prune, for the guided tier and, as further
// inputs, the thesis and exhaustive joint tiers.
func TestGuidedPruningCounters(t *testing.T) {
	mobilenet, lenet := mobilenetLayers(t), lenetLayers(t)
	cases := []struct {
		name string
		// run searches with the registry and returns the result and the
		// gauges the strategy must have published.
		run func(reg *trace.Registry) (*Result, map[string]float64, error)
		// routePrunes: the search must show the routability probe pruning.
		routePrunes bool
	}{
		{"guided/mobilenetv1/A10", func(reg *trace.Registry) (*Result, map[string]float64, error) {
			res, err := ExploreGuided(mobilenet, "mobilenetv1", fpga.A10, GuidedOptions{
				Options: Options{MaxCandidates: 48, Metrics: reg}, Seed: 1,
			})
			if err != nil {
				return nil, nil, err
			}
			return &res.Result, map[string]float64{
				"dse.model_rank_corr": res.RankCorr,
				"dse.space_size":      float64(res.SpaceSize),
			}, nil
		}, true},
		{"thesis/mobilenetv1/A10", func(reg *trace.Registry) (*Result, map[string]float64, error) {
			res, err := ExploreWith(mobilenet, "mobilenetv1", fpga.A10, Options{MaxCandidates: 24, Metrics: reg})
			return res, nil, err
		}, true},
		{"joint/lenet5/A10", func(reg *trace.Registry) (*Result, map[string]float64, error) {
			res, err := ExploreJointWith(lenet, "lenet5", fpga.A10, Options{Metrics: reg})
			if err != nil {
				return nil, nil, err
			}
			return &res.Result, map[string]float64{"dse.space_size": float64(res.SpaceSize)}, nil
		}, false},
	}
	for _, c := range cases {
		reg := trace.NewRegistry()
		res, gauges, err := c.run(reg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Pruned != res.PrunedBandwidth+res.PrunedRoute {
			t.Fatalf("%s: Pruned %d != bandwidth %d + route %d", c.name, res.Pruned, res.PrunedBandwidth, res.PrunedRoute)
		}
		if c.routePrunes && res.PrunedRoute == 0 {
			t.Fatalf("%s: expected the routability probe to prune unroutable 1x1 tilings on A10", c.name)
		}
		for name, want := range map[string]int{
			"dse.pruned":           res.Pruned,
			"dse.pruned_bandwidth": res.PrunedBandwidth,
			"dse.pruned_route":     res.PrunedRoute,
			"dse.evaluated":        res.Evaluated,
		} {
			if got := reg.Counter(name).Value(); got != int64(want) {
				t.Fatalf("%s: %s = %d, want %d", c.name, name, got, want)
			}
		}
		for name, want := range gauges {
			if got := reg.Gauge(name).Value(); got != want {
				t.Fatalf("%s: %s = %v, want %v", c.name, name, got, want)
			}
		}
	}
}

// TestGuidedRankCorrSignal: with a trained model the predicted-vs-actual
// rank correlation must show real signal on both a small and a large space.
func TestGuidedRankCorrSignal(t *testing.T) {
	cases := []struct {
		net    string
		layers []*relay.Layer
		board  *fpga.Board
		budget int
	}{
		{"lenet5", lenetLayers(t), fpga.A10, 32},
		{"mobilenetv1", mobilenetLayers(t), fpga.S10SX, 64},
	}
	for _, c := range cases {
		res, err := ExploreGuided(c.layers, c.net, c.board, GuidedOptions{
			Options: Options{MaxCandidates: c.budget}, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.net, err)
		}
		if res.RankCorr < 0.5 {
			t.Fatalf("%s: rank correlation %.3f, want >= 0.5 (model carries no ranking signal)", c.net, res.RankCorr)
		}
	}
}

// TestGuidedCancellation: a pre-cancelled context returns promptly with a
// well-formed partial result.
func TestGuidedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExploreGuided(mobilenetLayers(t), "mobilenetv1", fpga.S10SX, GuidedOptions{
		Options: Options{Ctx: ctx}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("Canceled must be set for a cancelled guided search")
	}
	if res.Evaluated != len(res.Candidates) || len(res.Ranked) != len(res.Candidates) {
		t.Fatalf("partial accounting broken: evaluated=%d candidates=%d ranked=%d",
			res.Evaluated, len(res.Candidates), len(res.Ranked))
	}
}

// TestSpacePointKeyRoundTrip: the canonical key encoding inverts exactly.
func TestSpacePointKeyRoundTrip(t *testing.T) {
	s := BuildSpace(mobilenetLayers(t), "mobilenetv1")
	rng := newRNG(3)
	for i := 0; i < 100; i++ {
		p := randomPoint(s, rng)
		q, err := s.pointFromKey(s.key(p))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip: %v -> %q -> %v", p, s.key(p), q)
		}
	}
	if _, err := s.pointFromKey("not.a.key"); err == nil {
		t.Fatal("malformed key must error")
	}
	if _, err := s.pointFromKey("9999.0.0"); err == nil {
		t.Fatal("out-of-range key must error")
	}
}
