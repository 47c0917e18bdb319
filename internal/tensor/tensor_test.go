package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroes(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || len(x.Shape) != 3 || x.Bytes() != 96 {
		t.Fatalf("unexpected metadata: len=%d rank=%d bytes=%d", x.Len(), len(x.Shape), x.Bytes())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("new tensor not zeroed")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 5)
	x.Set(7.5, 1, 2, 4)
	if got := x.At(1, 2, 4); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Flat offset of the last element must be Len-1.
	if x.Data[x.Len()-1] != 7.5 {
		t.Fatalf("row-major offset wrong: last elem = %v", x.Data[x.Len()-1])
	}
}

func TestOffsetRowMajor(t *testing.T) {
	x := New(3, 4)
	x.Set(1, 1, 2)
	if x.Data[1*4+2] != 1 {
		t.Fatal("row-major layout violated")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on OOB index")
		}
	}()
	New(2, 2).At(2, 0)
}

// At and Set are the CPU reference's inner-loop accessors: the variadic index
// must stay on the caller's stack, even though the out-of-bounds panic names
// it (formatted from a copy, with the same message).
func TestAtSetAllocateNothing(t *testing.T) {
	x := New(2, 3, 4, 5)
	i, j := 1, 2
	if n := testing.AllocsPerRun(100, func() { x.Set(x.At(i, j, 3, 4)+1, i, j, 3, 4) }); n != 0 {
		t.Fatalf("At+Set allocate %v times per call, want 0", n)
	}
	defer func() {
		want := "tensor: index [1 2 4 0] out of bounds for shape [2 3 4 5]"
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	x.At(i, j, 4, 0)
}

func TestBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive dim")
		}
	}()
	New(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(9, 2, 3)
	if x.At(1, 5) != 9 {
		t.Fatal("reshape must alias data")
	}
}

func TestReshapeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad reshape")
		}
	}()
	New(2, 3).Reshape(7)
}

func TestCloneIndependent(t *testing.T) {
	x := New(4)
	x.Data[0] = 2
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 2 {
		t.Fatal("clone aliases source")
	}
}

func TestFillSeqDeterministicAndBounded(t *testing.T) {
	a, b := New(1000), New(1000)
	a.FillSeq(42)
	b.FillSeq(42)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("FillSeq not deterministic")
		}
		if v := float64(a.Data[i]); v < -1.0001 || v > 1.0001 {
			t.Fatalf("FillSeq out of [-1,1]: %v", v)
		}
	}
	c := New(1000)
	c.FillSeq(43)
	same := 0
	for i := range a.Data {
		if a.Data[i] == c.Data[i] {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestMaxAbsDiffAndAllClose(t *testing.T) {
	a, b := New(3), New(3)
	a.Data[1] = 1.0
	b.Data[1] = 1.5
	if d := MaxAbsDiff(a, b); math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", d)
	}
	if AllClose(a, b, 1e-3) {
		t.Fatal("AllClose should fail at tol 1e-3")
	}
	if !AllClose(a, b, 0.5) {
		t.Fatal("AllClose should pass at tol 0.5")
	}
}

func TestAllCloseNaN(t *testing.T) {
	a, b := New(1), New(1)
	a.Data[0] = float32(math.NaN())
	b.Data[0] = float32(math.NaN())
	if AllClose(a, b, 1) {
		t.Fatal("NaN must never compare close")
	}
}

func TestArgMax(t *testing.T) {
	x := New(4)
	copy(x.Data, []float32{-1, 3, 2, 3})
	if x.ArgMax() != 1 {
		t.Fatalf("ArgMax = %d, want first maximum (1)", x.ArgMax())
	}
}

func TestSum(t *testing.T) {
	x := New(3)
	copy(x.Data, []float32{1, 2, 3.5})
	if s := x.Sum(); math.Abs(s-6.5) > 1e-9 {
		t.Fatalf("Sum = %v", s)
	}
}

// Property: Clone is always equal to its source, and FillSeq output is
// shape-independent for the same element count.
func TestQuickCloneEqual(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		x := New(n)
		x.FillSeq(seed)
		y := x.Clone()
		return MaxAbsDiff(x, y) == 0 && AllClose(x, y, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: At(Set(v)) == v for arbitrary in-range coordinates.
func TestQuickAtSet(t *testing.T) {
	f := func(a, b uint8, v float32) bool {
		h, w := int(a%7)+1, int(b%9)+1
		x := New(h, w)
		i, j := int(a)%h, int(b)%w
		x.Set(v, i, j)
		return x.At(i, j) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
