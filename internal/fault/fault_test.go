package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// runProbes drives a fixed probe sequence and returns the ledger.
func runProbes(in *Injector) []Record {
	for i := 0; i < 50; i++ {
		in.Transfer(fmt.Sprintf("write%d", i), float64(i))
		in.Enqueue(fmt.Sprintf("kernel%d", i), float64(i))
		in.Stall(fmt.Sprintf("kernel%d", i), float64(i))
	}
	return in.Records()
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runProbes(NewInjector(7, 0.2))
	b := runProbes(NewInjector(7, 0.2))
	if len(a) == 0 {
		t.Fatal("rate 0.2 over 150 probes injected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("ledger lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := runProbes(NewInjector(1, 0.2))
	b := runProbes(NewInjector(2, 0.2))
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestRateExtremes(t *testing.T) {
	if got := runProbes(NewInjector(3, 0)); len(got) != 0 {
		t.Fatalf("rate 0 injected %d faults", len(got))
	}
	all := runProbes(NewInjector(3, 1))
	if len(all) != 150 {
		t.Fatalf("rate 1 injected %d of 150 probes", len(all))
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if err := in.Transfer("w", 0); err != nil {
		t.Fatal("nil injector injected a transfer fault")
	}
	if x := in.Stall("k", 0); x != 1 {
		t.Fatalf("nil injector stall factor %v", x)
	}
	if in.Records() != nil {
		t.Fatal("nil injector has records")
	}
}

func TestErrorTaxonomy(t *testing.T) {
	in := NewInjector(11, 1)
	terr := in.Transfer("write input", 5)
	if terr == nil {
		t.Fatal("rate-1 transfer probe did not fire")
	}
	if terr.Kind != TransferFail && terr.Kind != TransferCorrupt {
		t.Fatalf("unexpected transfer fault kind %v", terr.Kind)
	}
	if !IsTransient(terr) {
		t.Fatal("transfer faults must be transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", terr)) {
		t.Fatal("IsTransient must see through wrapping")
	}
	eerr := in.Enqueue("kernel conv1", 6)
	if eerr.Code != OutOfHostMemory {
		t.Fatalf("enqueue fault code %v", eerr.Code)
	}
	if x := in.Stall("kernel conv1", 8); x <= 1 {
		t.Fatalf("rate-1 stall factor %v", x)
	}
	var fe *Error
	if !errors.As(error(terr), &fe) {
		t.Fatal("fault errors must unwrap with errors.As")
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain errors are not transient faults")
	}
}

func TestCodeStrings(t *testing.T) {
	for code, want := range map[Code]string{
		OutOfResources:          "CL_OUT_OF_RESOURCES",
		MemObjectAllocationFail: "CL_MEM_OBJECT_ALLOCATION_FAILURE",
		Code(-99):               "CL_ERROR(-99)",
	} {
		if code.String() != want {
			t.Errorf("Code(%d) = %q, want %q", int(code), code, want)
		}
	}
}

func TestConcurrentProbesAreSafe(t *testing.T) {
	in := NewInjector(5, 0.5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.Transfer(fmt.Sprintf("g%d-%d", g, i), float64(i))
			}
		}(g)
	}
	wg.Wait()
	recs := in.Records()
	if len(recs) == 0 {
		t.Fatal("no faults under concurrency")
	}
	for i, r := range recs {
		if r.Seq != i+1 {
			t.Fatalf("ledger sequence broken at %d: %+v", i, r)
		}
	}
}
