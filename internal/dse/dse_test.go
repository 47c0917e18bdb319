package dse

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/topi"
)

// handPickedS10SX is the thesis's Table 6.7 configuration for the S10SX
// (duplicated from bench.MobileNetConfig to avoid an import cycle).
var handPickedS10SX = host.FoldedConfig{
	Conv: map[string]topi.ConvSched{
		"conv1x1s1": topi.OptSched(7, 16, 4),
		"conv3x3s2": topi.OptSched(1, 1, 3),
	},
	DWVec:      map[string]int{"dw3x3s1": 7, "dw3x3s2": 7},
	DenseVec:   32,
	Workaround: true,
}

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

func TestGatherFactsMobileNet(t *testing.T) {
	f := gatherFacts(mobilenetLayers(t))
	if !f.hasPW || !f.hasDW || !f.hasDense || !f.has33 {
		t.Fatalf("facts incomplete: %+v", f)
	}
	// 1x1 output widths are {112,56,28,14,7}: gcd 7. Channels gcd 32/64.
	if f.pwW2 != 7 {
		t.Fatalf("pw W2 gcd = %d, want 7", f.pwW2)
	}
	if f.pwC1%32 != 0 || f.pwC2%64 != 0 {
		t.Fatalf("channel gcds: c1=%d c2=%d", f.pwC1, f.pwC2)
	}
	if f.denseN != 1024 {
		t.Fatalf("dense N = %d", f.denseN)
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
	handDep, err := host.BuildFolded(layers, handPickedS10SX, board, aoc.DefaultOptions)
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

// handPickedResNetS10SX mirrors bench.ResNetConfig (duplicated to avoid an
// import cycle).
var handPickedResNetS10SX = func() host.FoldedConfig {
	s33 := topi.OptSched(7, 1, 8)
	return host.FoldedConfig{
		Conv: map[string]topi.ConvSched{
			"conv7x7s2":     topi.OptSched(1, 1, 1),
			"conv3x3s1":     s33,
			"conv3x3s1_res": s33,
			"conv3x3s2":     s33,
			"conv1x1s2_lin": topi.OptSched(1, 1, 8),
		},
		DenseVec:   32,
		Workaround: true,
	}
}()

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
	handDep, err := host.BuildFolded(layers, handPickedResNetS10SX, fpga.S10SX, aoc.DefaultOptions)
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
