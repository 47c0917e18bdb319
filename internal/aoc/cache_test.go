package aoc

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fpga"
	"repro/internal/ir"
)

// symCopy builds a fresh symbolic-shape copy kernel. Every call allocates new
// Var/Buffer instances, so two calls are structurally identical but share no
// pointers — exactly what successive explorer candidates hand the compiler.
func symCopy(name string) (*ir.Kernel, *ir.Var) {
	n := ir.Param("n")
	in := ir.NewBufferE("in", ir.Global, n)
	out := ir.NewBufferE("out", ir.Global, n)
	i := ir.V("i")
	k := &ir.Kernel{Name: name, Args: []*ir.Buffer{in, out}, ScalarArgs: []*ir.Var{n},
		Body: ir.LoopE(i, n, &ir.Store{Buf: out, Index: []ir.Expr{i}, Value: &ir.Load{Buf: in, Index: []ir.Expr{i}}})}
	return k, n
}

func TestCompileCacheHitsStructurallyIdenticalKernels(t *testing.T) {
	cache := NewCompileCache()
	k1, _ := symCopy("sym")
	k2, _ := symCopy("sym")
	d1, err := CompileCached("a", []*ir.Kernel{k1}, fpga.S10SX, DefaultOptions, cache)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := CompileCached("b", []*ir.Kernel{k2}, fpga.S10SX, DefaultOptions, cache)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Kernels[0] != d2.Kernels[0] {
		t.Fatal("structurally identical kernels must share one cached KernelModel")
	}
	if h, m := cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", h, m)
	}
	if cache.size() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.size())
	}
}

func TestCompileCacheMissesOnStructuralDifference(t *testing.T) {
	cache := NewCompileCache()
	k1, _ := symCopy("sym")
	k2, _ := symCopy("sym")
	k2.Body.(*ir.For).Unroll = -1 // same text shape, different hardware
	if _, err := CompileCached("a", []*ir.Kernel{k1}, fpga.S10SX, DefaultOptions, cache); err != nil {
		t.Fatal(err)
	}
	if _, err := CompileCached("b", []*ir.Kernel{k2}, fpga.S10SX, DefaultOptions, cache); err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != 0 || m != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 0/2", h, m)
	}
	// Different boards and options also key separately.
	k3, _ := symCopy("sym")
	if _, err := CompileCached("c", []*ir.Kernel{k3}, fpga.A10, DefaultOptions, cache); err != nil {
		t.Fatal(err)
	}
	if _, m := cache.Stats(); m != 3 {
		t.Fatalf("board change must miss, misses = %d", m)
	}
}

// TestCachedModelRebindsForeignVars checks that a model served from the cache
// evaluates bindings keyed by another kernel instance's vars: binding maps
// are pointer-keyed, so the model must translate them by scalar-arg name.
func TestCachedModelRebindsForeignVars(t *testing.T) {
	cache := NewCompileCache()
	k1, n1 := symCopy("sym")
	k2, n2 := symCopy("sym")
	d1, err := CompileCached("a", []*ir.Kernel{k1}, fpga.S10SX, DefaultOptions, cache)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := CompileCached("b", []*ir.Kernel{k2}, fpga.S10SX, DefaultOptions, cache)
	if err != nil {
		t.Fatal(err)
	}
	own := d1.Kernels[0].Cycles(map[*ir.Var]int64{n1: 1000})
	foreign := d2.Kernels[0].Cycles(map[*ir.Var]int64{n2: 1000})
	if own != foreign {
		t.Fatalf("cached model must honor foreign bindings: own %d vs foreign %d", own, foreign)
	}
	if tr := d2.Kernels[0].trafficBytes(map[*ir.Var]int64{n2: 1000}); tr != d1.Kernels[0].trafficBytes(map[*ir.Var]int64{n1: 1000}) {
		t.Fatal("traffic must match under foreign bindings")
	}
}

// TestCompileCacheShardedSingleflight drives far more distinct kernels than
// there are shards from many goroutines at once (run under -race): every
// distinct fingerprint must be analyzed exactly once no matter which shard it
// lands on, and hit/miss accounting must be exact.
func TestCompileCacheShardedSingleflight(t *testing.T) {
	cache := NewCompileCache()
	const goroutines, distinct = 16, 3 * cacheShards
	kernels := make([]*ir.Kernel, distinct)
	for i := range kernels {
		kernels[i], _ = symCopy(fmt.Sprintf("shard%d", i))
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range kernels {
				// Fresh structural copy per goroutine: identical fingerprint,
				// zero shared pointers, like successive explorer candidates.
				k, _ := symCopy(kernels[i].Name)
				if _, err := CompileCached("s", []*ir.Kernel{k}, fpga.S10SX, DefaultOptions, cache); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	h, m := cache.Stats()
	if m != distinct {
		t.Fatalf("misses = %d, want %d (singleflight: one analysis per fingerprint)", m, distinct)
	}
	if h+m != goroutines*distinct {
		t.Fatalf("lookups = %d, want %d", h+m, goroutines*distinct)
	}
	if cache.size() != distinct {
		t.Fatalf("cache holds %d entries, want %d", cache.size(), distinct)
	}
}

// TestCompileCacheConcurrent hammers one cache from many goroutines (run
// under -race); each distinct kernel must be analyzed exactly once.
func TestCompileCacheConcurrent(t *testing.T) {
	cache := NewCompileCache()
	const goroutines, distinct = 8, 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < distinct; i++ {
				k, _ := symCopy(fmt.Sprintf("sym%d", i))
				if _, err := CompileCached("d", []*ir.Kernel{k}, fpga.S10SX, DefaultOptions, cache); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	h, m := cache.Stats()
	if h+m != goroutines*distinct {
		t.Fatalf("lookups = %d, want %d", h+m, goroutines*distinct)
	}
	if cache.size() != distinct {
		t.Fatalf("cache holds %d entries, want %d", cache.size(), distinct)
	}
	if m != distinct {
		t.Fatalf("misses = %d, want %d (each kernel analyzed once)", m, distinct)
	}
}
