package dse

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
)

func mobilenetLayers(t *testing.T) []*relay.Layer {
	t.Helper()
	layers, err := relay.Lower(nn.MobileNetV1())
	if err != nil {
		t.Fatal(err)
	}
	return layers
}

func TestDivisorsOf(t *testing.T) {
	got := divisorsOf(12, 6)
	want := []int{1, 2, 3, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("divisors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divisors = %v", got)
		}
	}
}

// TestBuildSpaceFactsMobileNet: the space's axes carry the network's divisor
// facts, the common divisors of each tiled extent over its layer group.
func TestBuildSpaceFactsMobileNet(t *testing.T) {
	s := BuildSpace(mobilenetLayers(t), "mobilenetv1")
	axis := func(name string) []int {
		t.Helper()
		i, ok := s.idx[name]
		if !ok {
			t.Fatalf("no axis %s in %s", name, s.Sig())
		}
		return s.Axes[i].Values
	}
	// 1x1 output widths are {112,56,28,14,7}: gcd 7, and the scalar-store
	// w2 = 1 is left out. Channels: gcd 64 out, 32 in.
	if got := axis(axPWW2); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("pw.w2 = %v, want [7]", got)
	}
	if got := axis(axPWC2); got[len(got)-1] != 64 {
		t.Fatalf("pw.c2 = %v, want up to 64", got)
	}
	if got := axis(axPWC1); got[len(got)-1] != 32 {
		t.Fatalf("pw.c1 = %v, want up to 32", got)
	}
	axis(axC33W2)
	axis(axDWW2)
	if len(s.denseSigs) != 1 {
		t.Fatalf("dense signatures %v, want one", s.denseSigs)
	}
	// The classifier reduces over 1024 inputs.
	if got := axis(denseAxis(s.denseSigs[0])); !reflect.DeepEqual(got, []int{1, 2, 4, 8, 16, 32}) {
		t.Fatalf("dense kvec = %v", got)
	}
}

func TestExploreMobileNetFindsGoodConfig(t *testing.T) {
	layers := mobilenetLayers(t)
	board := fpga.S10SX
	res, err := ExploreWith(layers, "mobilenetv1", board, Options{MaxCandidates: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated == 0 || len(res.Candidates) != res.Evaluated {
		t.Fatalf("evaluated %d candidates", res.Evaluated)
	}
	best, err := res.Best()
	if err != nil {
		t.Fatal(err)
	}
	if !best.Synthesizable || best.TimeUS <= 0 {
		t.Fatalf("best candidate invalid: %+v", best)
	}

	// The explorer must do at least as well as the thesis's hand-picked
	// Table 6.7 configuration for this board.
	handDep, err := host.BuildFolded(layers, host.MobileNetConfig(board), board, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := handDep.ProfileOps()
	if err != nil {
		t.Fatal(err)
	}
	var handUS float64
	for _, p := range prof {
		handUS += p.TimeUS
	}
	if best.TimeUS > handUS*1.02 {
		t.Fatalf("DSE best (%.0f us) must match or beat the hand-picked config (%.0f us)", best.TimeUS, handUS)
	}
	t.Logf("DSE best: pw %d/%d/%d, %.1f ms vs hand-picked %.1f ms",
		best.PW.W2vec, best.PW.C2vec, best.PW.C1vec, best.TimeUS/1e3, handUS/1e3)
}

func TestExploreRanksSynthesizableFirst(t *testing.T) {
	layers := mobilenetLayers(t)
	res, err := ExploreWith(layers, "mobilenetv1", fpga.A10, Options{MaxCandidates: 20})
	if err != nil {
		t.Fatal(err)
	}
	seenFail := false
	var prev float64
	for _, c := range res.Candidates {
		if !c.Synthesizable {
			seenFail = true
			continue
		}
		if seenFail {
			t.Fatal("synthesizable candidate ranked after a failing one")
		}
		if prev > 0 && c.TimeUS < prev {
			t.Fatal("synthesizable candidates not sorted by time")
		}
		prev = c.TimeUS
	}
}

func TestExploreRespectsResourceLimits(t *testing.T) {
	layers := mobilenetLayers(t)
	res, err := ExploreWith(layers, "mobilenetv1", fpga.A10, Options{MaxCandidates: 30})
	if err != nil {
		t.Fatal(err)
	}
	best, err := res.Best()
	if err != nil {
		t.Fatal(err)
	}
	// The chosen design must be a legal A10 deployment.
	if best.DSPs > fpga.A10.Total.DSPs {
		t.Fatalf("best uses %d DSPs on a %d-DSP device", best.DSPs, fpga.A10.Total.DSPs)
	}
	if best.LogicFrac >= 1 {
		t.Fatalf("best logic fraction %.2f", best.LogicFrac)
	}
}

func TestExploreLeNetFoldedNetwork(t *testing.T) {
	// The explorer generalizes to any network, including ones without 1x1
	// convolutions.
	layers, err := relay.Lower(nn.LeNet5())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExploreWith(layers, "lenet5", fpga.S10SX, Options{MaxCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Best(); err != nil {
		t.Fatal(err)
	}
}

func TestBestErrorsWhenNothingFits(t *testing.T) {
	r := &Result{Net: "x", Board: fpga.A10, Candidates: []Candidate{{Synthesizable: false}}}
	if _, err := r.Best(); err == nil {
		t.Fatal("Best must fail when nothing synthesizes")
	}
}

// TestExploreDeterministicAcrossWorkerCounts is the core guarantee of the
// parallel explorer, for every strategy: the Result — candidate order,
// modeled times, pruning and cache counters — is bit-identical no matter how
// many workers evaluate it.
func TestExploreDeterministicAcrossWorkerCounts(t *testing.T) {
	lenet, mobilenet := lenetLayers(t), mobilenetLayers(t)
	runs := []struct {
		name string
		run  func(workers int) (*Result, error)
	}{
		{"thesis/lenet5", func(workers int) (*Result, error) {
			return ExploreWith(lenet, "lenet5", fpga.S10SX, Options{Workers: workers, MaxCandidates: 8})
		}},
		{"thesis/mobilenetv1", func(workers int) (*Result, error) {
			return ExploreWith(mobilenet, "mobilenetv1", fpga.S10SX, Options{Workers: workers, MaxCandidates: 24})
		}},
		{"joint/lenet5", func(workers int) (*Result, error) {
			res, err := ExploreJointWith(lenet, "lenet5", fpga.A10, Options{Workers: workers})
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		}},
		{"guided/lenet5", func(workers int) (*Result, error) {
			res, err := ExploreGuided(lenet, "lenet5", fpga.A10, GuidedOptions{
				Options: Options{Workers: workers, MaxCandidates: 24}, Seed: 1,
			})
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		}},
	}
	for _, r := range runs {
		var ref *Result
		for _, workers := range []int{1, 4, 16} {
			res, err := r.run(workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", r.name, workers, err)
			}
			if workers == 1 {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res.Candidates, ref.Candidates) {
				t.Fatalf("%s: candidates differ between 1 and %d workers", r.name, workers)
			}
			if res.Evaluated != ref.Evaluated || res.Pruned != ref.Pruned {
				t.Fatalf("%s workers=%d: evaluated/pruned %d/%d vs serial %d/%d",
					r.name, workers, res.Evaluated, res.Pruned, ref.Evaluated, ref.Pruned)
			}
			if res.CacheHits != ref.CacheHits || res.CacheMisses != ref.CacheMisses {
				t.Fatalf("%s workers=%d: cache %d/%d vs serial %d/%d",
					r.name, workers, res.CacheHits, res.CacheMisses, ref.CacheHits, ref.CacheMisses)
			}
		}
	}
}

// TestExploreCancellation: a pre-cancelled context must return promptly with
// a well-formed partial Result rather than an error or a hang.
func TestExploreCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := ExploreWith(mobilenetLayers(t), "mobilenetv1", fpga.S10SX, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled search took %v", elapsed)
	}
	if !res.Canceled {
		t.Fatal("Result.Canceled must be set for a cancelled search")
	}
	if res.Evaluated != len(res.Candidates) {
		t.Fatalf("Evaluated %d != len(Candidates) %d", res.Evaluated, len(res.Candidates))
	}
	for _, c := range res.Candidates {
		if c.Synthesizable && c.TimeUS <= 0 {
			t.Fatalf("partial result holds malformed candidate: %+v", c)
		}
	}
}

// TestExploreExactBudgetAccounting: the MaxCandidates cap is exact under
// concurrency — workers must not overshoot the budget between them.
func TestExploreExactBudgetAccounting(t *testing.T) {
	layers := mobilenetLayers(t)
	for _, max := range []int{1, 3, 7} {
		res, err := ExploreWith(layers, "mobilenetv1", fpga.S10SX, Options{
			Workers: 8, MaxCandidates: max,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluated != max {
			t.Fatalf("max=%d: evaluated %d", max, res.Evaluated)
		}
		if len(res.Candidates) != max {
			t.Fatalf("max=%d: %d candidates", max, len(res.Candidates))
		}
	}
}

func TestExploreResNetMatchesHandConfig(t *testing.T) {
	g, err := nn.ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExploreWith(layers, "resnet18", fpga.S10SX, Options{MaxCandidates: 16})
	if err != nil {
		t.Fatal(err)
	}
	best, err := res.Best()
	if err != nil {
		t.Fatal(err)
	}
	handDep, err := host.BuildFolded(layers, host.ResNetConfig(fpga.S10SX), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := handDep.ProfileOps()
	if err != nil {
		t.Fatal(err)
	}
	var handUS float64
	for _, p := range prof {
		handUS += p.TimeUS
	}
	// ResNet is bandwidth-bound, so the explorer has limited headroom; it
	// must at least find something within 25% of the thesis's hand pick.
	if best.TimeUS > handUS*1.25 {
		t.Fatalf("DSE best (%.1f ms) too far behind hand config (%.1f ms)", best.TimeUS/1e3, handUS/1e3)
	}
	t.Logf("ResNet-18 DSE best %.1f ms vs hand %.1f ms", best.TimeUS/1e3, handUS/1e3)
}

// TestThesisCandidatesAreSpacePoints: the thesis tier is a view of the joint
// schedule space. Every candidate it evaluates is a feasible point of
// BuildSpace with the §4.11 pins (3x3 output-channel unroll 1 with the F×F
// window unrolled, projection and depthwise unrolls at their largest, every
// dense signature at the largest divisor ≤ 32 of the gcd over all dense
// layers, the coalescing workaround on), and that point's Config models the
// same design. The exhaustive joint search, which sees every such point,
// can then never do worse than the thesis tier.
func TestThesisCandidatesAreSpacePoints(t *testing.T) {
	lower := func(net string) []*relay.Layer {
		t.Helper()
		g, err := nn.ByName(net)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := relay.Lower(g)
		if err != nil {
			t.Fatal(err)
		}
		return layers
	}
	cases := []struct {
		net   string
		board *fpga.Board
	}{
		{"mobilenetv1", fpga.A10},
		{"mobilenetv1", fpga.S10SX},
		{"mobilenetv1", fpga.S10MX},
		{"resnet18", fpga.S10SX},
		{"googlenet", fpga.S10SX},
		{"lenet5", fpga.A10},
	}
	for _, c := range cases {
		layers := lower(c.net)
		res, err := ExploreWith(layers, c.net, c.board, Options{})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.net, c.board.Name, err)
		}
		if res.Evaluated == 0 {
			t.Fatalf("%s/%s: nothing evaluated", c.net, c.board.Name)
		}
		space := BuildSpace(layers, c.net)
		denseN := 0
		for _, l := range layers {
			if l.Kind == relay.KDense {
				denseN = gcd(denseN, l.InShape[0])
			}
		}
		kvecs := divisorsOf(denseN, 32)
		cache := aoc.NewCompileCache()
		for ci, cand := range res.Candidates {
			want := map[string]int{
				axPWW2: cand.PW.W2vec, axPWC2: cand.PW.C2vec, axPWC1: cand.PW.C1vec,
				axC33W2: cand.Conv33.W2vec, axC33C2: 1, axC33C1: cand.Conv33.C1vec, axC33FF: 1,
				axWkrd: 1,
			}
			for _, sig := range space.denseSigs {
				want[denseAxis(sig)] = kvecs[len(kvecs)-1]
			}
			p := make(Point, len(space.Axes))
			for i, ax := range space.Axes {
				v, ok := want[ax.Name]
				if !ok { // proj.c1, dw.w2
					v = ax.Max()
				}
				if p[i] = slices.Index(ax.Values, v); p[i] < 0 {
					t.Fatalf("%s/%s candidate %d: %s = %d is not on the axis %v", c.net, c.board.Name, ci, ax.Name, v, ax.Values)
				}
			}
			if q, err := space.PointFromKey(space.Key(p)); err != nil || !slices.Equal(p, q) {
				t.Fatalf("%s/%s candidate %d: key %q round-trips to %v, %v", c.net, c.board.Name, ci, space.Key(p), q, err)
			}
			if ok, why := space.Feasible(p, c.board); !ok {
				t.Fatalf("%s/%s candidate %d: point %s infeasible: %s", c.net, c.board.Name, ci, space.Key(p), why)
			}
			got, err := evaluate(layers, space.Config(p), c.board, cache)
			if err != nil {
				t.Fatal(err)
			}
			if got.TimeUS != cand.TimeUS || got.Synthesizable != cand.Synthesizable || got.DSPs != cand.DSPs {
				t.Fatalf("%s/%s candidate %d: point %s models %v us synth %v %d DSPs, candidate %v us synth %v %d DSPs",
					c.net, c.board.Name, ci, space.Key(p), got.TimeUS, got.Synthesizable, got.DSPs,
					cand.TimeUS, cand.Synthesizable, cand.DSPs)
			}
		}
		if c.net != "lenet5" {
			continue
		}
		joint, err := ExploreJointWith(layers, c.net, c.board, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jb, err := joint.Best()
		if err != nil {
			t.Fatal(err)
		}
		tb, err := res.Best()
		if err != nil {
			t.Fatal(err)
		}
		if jb.TimeUS > tb.TimeUS {
			t.Fatalf("lenet5/%s: joint best %v us worse than thesis best %v us", c.board.Name, jb.TimeUS, tb.TimeUS)
		}
	}
}
