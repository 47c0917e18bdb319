package fpga

import (
	"math"
	"testing"
)

func TestBoardTableValues(t *testing.T) {
	// Spot-check against Table 6.1/6.2.
	if A10.Total.DSPs != 1518 || S10SX.Total.DSPs != 5760 || S10MX.Total.DSPs != 3960 {
		t.Fatal("DSP totals diverge from Table 6.2")
	}
	if S10SX.Total.ALUTs != 1666240 || S10MX.Total.RAMs != 6847 {
		t.Fatal("ALUT/RAM totals diverge from Table 6.2")
	}
	if A10.Static.ALUTs != 113900 {
		t.Fatal("A10 static partition diverges from Table 6.2")
	}
}

func TestUsableSubtractsStatic(t *testing.T) {
	u := A10.Usable()
	if u.ALUTs != 740500-113900 || u.RAMs != 2336-377 || u.DSPs != 1518 {
		t.Fatalf("usable = %+v", u)
	}
}

func TestBytesPerCycleMatchesThesisExample(t *testing.T) {
	// §4.11: A10 at 250 MHz supports ~136.4 B/cycle ≈ 32 floats.
	bpc := A10.BytesPerCycleAt(250)
	if math.Abs(bpc-136.4) > 0.5 {
		t.Fatalf("A10 bytes/cycle at 250MHz = %v, want ~136.4", bpc)
	}
	if floats := bpc / 4; floats < 32 || floats > 36 {
		t.Fatalf("A10 float lanes = %v, thesis bounds unroll at 32", floats)
	}
}

func TestFitsIn(t *testing.T) {
	r := Resources{ALUTs: 100, FFs: 100, RAMs: 10, DSPs: 5}
	if ok, _ := r.FitsIn(A10.Total); !ok {
		t.Fatal("small design must fit")
	}
	big := Resources{RAMs: 99999}
	if ok, class := big.FitsIn(A10.Total); ok || class != "BRAM" {
		t.Fatalf("overflow class = %q", class)
	}
}

func TestResourcesAddUtilization(t *testing.T) {
	a := Resources{1, 2, 3, 4}
	b := a.Add(a)
	if b != (Resources{2, 4, 6, 8}) {
		t.Fatalf("Add = %+v", b)
	}
	logic, _, _, dsp := (Resources{ALUTs: 740500 / 2, DSPs: 1518}).Utilization(A10.Total)
	if math.Abs(logic-0.5) > 1e-9 || math.Abs(dsp-1.0) > 1e-9 {
		t.Fatalf("utilization = %v %v", logic, dsp)
	}
}

func TestQuartusAutoUnroll(t *testing.T) {
	// §6.3.1 fn. 4: A10 (17.1) and S10SX (18.1) auto-unroll; S10MX (19.1)
	// does not.
	if !A10.AutoUnrollsSmallLoops() || !S10SX.AutoUnrollsSmallLoops() {
		t.Fatal("A10/S10SX must auto-unroll small loops")
	}
	if S10MX.AutoUnrollsSmallLoops() {
		t.Fatal("S10MX must not auto-unroll small loops")
	}
}

func TestPCIeMonotone(t *testing.T) {
	for _, b := range Boards {
		if b.PCIe.WriteTimeUS(1<<20) <= b.PCIe.WriteTimeUS(1<<10) {
			t.Fatalf("%s: write time not monotone in size", b.Name)
		}
		if b.PCIe.ReadTimeUS(0) != b.PCIe.ReadLatencyUS {
			t.Fatalf("%s: zero-byte read should cost exactly the latency", b.Name)
		}
	}
	// The S10MX engineering sample must have by far the slowest writes
	// (Fig. 6.2 / Appendix A).
	if S10MX.PCIe.WriteTimeUS(4096) < 4*S10SX.PCIe.WriteTimeUS(4096) {
		t.Fatal("S10MX writes must dominate (engineering-sample BSP)")
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("A10")
	if err != nil || b != A10 {
		t.Fatal("ByName(A10) failed")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown board must error")
	}
}

func TestS10MXUsesOneHBMChannel(t *testing.T) {
	// §6.2: only one 12.8 GB/s pseudo-channel is used, not the full 409.6.
	if S10MX.PeakGBps != 12.8 {
		t.Fatalf("S10MX PeakGBps = %v, want single-PC 12.8", S10MX.PeakGBps)
	}
}
