package aoc_test

import (
	"math/rand"
	"testing"

	"repro/internal/aoc"
	"repro/internal/dse"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/ir"
)

// spacePointsPerNet is how many seeded dse.Space points the sweep builds
// per network.
const spacePointsPerNet = 200

// TestStrideRuleMatchesOracleOnRepoKernels compares the LSU stride rule
// with its oracle on every access of every kernel the repo builds, against
// every loop that encloses it (unrolled or not, so every question the
// analyzer could ask): the fixed designs of repoDesigns and 200 seeded
// points of each network's joint schedule space. The two must agree
// exactly.
func TestStrideRuleMatchesOracleOnRepoKernels(t *testing.T) {
	var kernels []*ir.Kernel
	for _, d := range repoDesigns(t) {
		for _, m := range d.design.Kernels {
			kernels = append(kernels, m.Kernel)
		}
	}
	cache := aoc.NewCompileCache()
	rng := rand.New(rand.NewSource(1))
	built := 0
	for _, net := range append([]string{"lenet5"}, foldedNets...) {
		layers := lowerNet(t, net)
		space := dse.BuildSpace(layers, net)
		for i := 0; i < spacePointsPerNet; i++ {
			p := make(dse.Point, len(space.Axes))
			for a := range space.Axes {
				p[a] = rng.Intn(len(space.Axes[a].Values))
			}
			f, err := host.BuildFoldedCached(layers, space.Config(p), fpga.S10SX, aoc.DefaultOptions, cache)
			if err != nil {
				continue // a divisibility miss: the point builds no kernels
			}
			kernels = append(kernels, f.KernelSet()...)
			built++
		}
	}

	seen := map[*ir.Kernel]bool{}
	pairs, strided := 0, 0
	for _, k := range kernels {
		if seen[k] {
			continue
		}
		seen[k] = true
		forEachAccess(k.Body, nil, func(buf *ir.Buffer, idx []ir.Expr, loops []*ir.Var) {
			for _, v := range loops {
				got, gok := aoc.FlatCoef(buf, idx, v)
				want, wok := aoc.OracleFlatCoef(buf, idx, v)
				if gok != wok || got != want {
					t.Errorf("kernel %s, %s%v over %s: stride %d/%v, oracle %d/%v",
						k.Name, buf.Name, idx, v.Name, got, gok, want, wok)
				}
				pairs++
				if gok && got != 0 {
					strided++
				}
			}
		})
	}
	t.Logf("%d (access, loop) pairs in %d kernels (%d space points built), %d with a known nonzero stride",
		pairs, len(seen), built, strided)
	if len(seen) < 300 || built < spacePointsPerNet || strided == 0 {
		t.Fatalf("sweep too small: %d kernels, %d space points built, %d strided pairs", len(seen), built, strided)
	}
}

// forEachAccess calls fn for every store and load in s with the variables of
// the loops enclosing it, outermost first.
func forEachAccess(s ir.Stmt, loops []*ir.Var, fn func(buf *ir.Buffer, idx []ir.Expr, loops []*ir.Var)) {
	loads := func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if l, ok := x.(*ir.Load); ok {
				fn(l.Buf, l.Index, loops)
			}
		})
	}
	switch x := s.(type) {
	case *ir.Block:
		for _, c := range x.Stmts {
			forEachAccess(c, loops, fn)
		}
	case *ir.For:
		forEachAccess(x.Body, append(loops[:len(loops):len(loops)], x.Var), fn)
	case *ir.Store:
		fn(x.Buf, x.Index, loops)
		for _, ix := range x.Index {
			loads(ix)
		}
		loads(x.Value)
	case *ir.ChannelWrite:
		loads(x.Value)
	case *ir.IfThen:
		loads(x.Cond)
		forEachAccess(x.Then, loops, fn)
		forEachAccess(x.Else, loops, fn)
	}
}
