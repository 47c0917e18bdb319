// Package fpga models the three evaluation platforms of the thesis
// (Table 6.1/6.2): the Intel PAC with Arria 10 GX, the Intel PAC D5005 with
// Stratix 10 SX, and the Stratix 10 MX HBM development kit. A Board carries
// the chip resources, the static-partition (shell) overhead, external-memory
// and PCIe characteristics, and the Quartus-version-dependent compiler
// behaviours the thesis calls out (auto-unrolling of small loops before
// Quartus 19.1, §6.3.1 fn. 4).
package fpga

import "fmt"

// Resources is a bundle of the four FPGA resource classes tracked by the
// Quartus fitter reports in the thesis.
type Resources struct {
	ALUTs int
	FFs   int
	RAMs  int // M20K memory blocks
	DSPs  int
}

// Add returns the sum of two resource bundles.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.ALUTs + o.ALUTs, r.FFs + o.FFs, r.RAMs + o.RAMs, r.DSPs + o.DSPs}
}

// Utilization returns per-class utilization fractions of r against total.
func (r Resources) Utilization(total Resources) (logic, ff, ram, dsp float64) {
	return float64(r.ALUTs) / float64(total.ALUTs),
		float64(r.FFs) / float64(total.FFs),
		float64(r.RAMs) / float64(total.RAMs),
		float64(r.DSPs) / float64(total.DSPs)
}

// FitsIn reports whether r fits within total and, if not, the class with the
// largest proportional overflow (what the fitter reports first).
func (r Resources) FitsIn(total Resources) (bool, string) {
	worst := ""
	ratio := 1.0
	check := func(used, avail int, name string) {
		if used > avail {
			if q := float64(used) / float64(avail); q > ratio {
				ratio, worst = q, name
			}
		}
	}
	check(r.ALUTs, total.ALUTs, "logic")
	check(r.FFs, total.FFs, "FFs")
	check(r.RAMs, total.RAMs, "BRAM")
	check(r.DSPs, total.DSPs, "DSPs")
	return worst == "", worst
}

// PCIeModel captures host<->device transfer behaviour (Appendix A): a fixed
// per-command latency plus a bandwidth term. The S10MX engineering sample has
// dramatically slower effective host-to-device writes, which dominates its
// LeNet runtime (Fig. 6.2).
type PCIeModel struct {
	WriteLatencyUS float64 // per clEnqueueWriteBuffer fixed cost, microseconds
	WriteGBps      float64
	ReadLatencyUS  float64
	ReadGBps       float64
}

// WriteTimeUS returns the modeled host→device transfer time for n bytes.
func (p PCIeModel) WriteTimeUS(bytes int) float64 {
	return p.WriteLatencyUS + float64(bytes)/(p.WriteGBps*1e3) // GB/s == bytes/ns == 1e3 bytes/us
}

// ReadTimeUS returns the modeled device→host transfer time for n bytes.
func (p PCIeModel) ReadTimeUS(bytes int) float64 {
	return p.ReadLatencyUS + float64(bytes)/(p.ReadGBps*1e3)
}

// Board is one evaluation platform.
type Board struct {
	Name    string
	SKU     string
	Family  string // "Arria 10" or "Stratix 10"
	Total   Resources
	Static  Resources // static partition / shell (Table 6.2)
	MemName string
	// PeakGBps is the theoretical external-memory bandwidth available to the
	// kernel system. For the S10MX only one HBM pseudo-channel is used
	// (§6.2), so this is the single-PC figure, not the 409.6 GB/s aggregate.
	PeakGBps float64
	// MemEfficiency derates peak bandwidth for LSU-level effects the model
	// does not track individually (refresh, bank conflicts, burst gaps).
	MemEfficiency float64
	// BaseFmaxMHz is the kernel-system clock an empty design closes timing at.
	BaseFmaxMHz float64
	PCIe        PCIeModel
	// QuartusMajor drives version-dependent compiler behaviour: versions
	// before 19.1 auto-unroll small constant loops (§6.3.1 fn. 4).
	QuartusMajor float64
	// EnqueueUS is the host-side cost of one clEnqueue* call on this
	// platform's host system (they differ: Xeon 8180 vs 8280 vs i9, PCIe
	// x8 vs x16, driver generations).
	EnqueueUS float64
	// RouteCapacity is an abstract wiring-capacity figure for the congestion
	// model; larger chips have more routing but also longer paths.
	RouteCapacity float64
}

// AutoUnrollsSmallLoops reports whether this platform's Quartus version
// automatically unrolls small-trip-count loops (A10, S10SX in the thesis).
func (b *Board) AutoUnrollsSmallLoops() bool { return b.QuartusMajor < 19.1 }

// Usable returns the resources available to the kernel system after the
// static partition.
func (b *Board) Usable() Resources {
	return Resources{
		ALUTs: b.Total.ALUTs - b.Static.ALUTs,
		FFs:   b.Total.FFs - b.Static.FFs,
		RAMs:  b.Total.RAMs - b.Static.RAMs,
		DSPs:  b.Total.DSPs - b.Static.DSPs,
	}
}

// BytesPerCycleAt returns the external-memory bytes/cycle ceiling at a given
// clock, the quantity the thesis uses to bound unroll factors (§4.11: 34.1
// GB/s at 250 MHz ≈ 136 B/cycle ≈ 32 floats on the A10).
func (b *Board) BytesPerCycleAt(fmaxMHz float64) float64 {
	return b.PeakGBps * 1e9 / (fmaxMHz * 1e6)
}

func (b *Board) String() string { return b.Name }

// The three evaluation platforms (Tables 6.1 and 6.2).
var (
	A10 = &Board{
		Name:   "A10",
		SKU:    "10AX115N2F40E2LG",
		Family: "Arria 10",
		Total:  Resources{ALUTs: 740500, FFs: 1481000, RAMs: 2336, DSPs: 1518},
		Static: Resources{ALUTs: 113900, FFs: 227800, RAMs: 377, DSPs: 0},

		MemName:       "8 GB DDR4, 2 banks",
		PeakGBps:      34.1,
		MemEfficiency: 0.82,
		BaseFmaxMHz:   242,
		PCIe:          PCIeModel{WriteLatencyUS: 28, WriteGBps: 5.5, ReadLatencyUS: 30, ReadGBps: 5.0},
		QuartusMajor:  17.1,
		EnqueueUS:     45,
		RouteCapacity: 1.00,
	}
	S10SX = &Board{
		Name:   "S10SX",
		SKU:    "1SX280HN2F43E2VG",
		Family: "Stratix 10",
		Total:  Resources{ALUTs: 1666240, FFs: 3457330, RAMs: 11254, DSPs: 5760},
		Static: Resources{ALUTs: 200000, FFs: 275150, RAMs: 467, DSPs: 0},

		MemName:       "32 GB DDR4, 4 banks",
		PeakGBps:      76.8,
		MemEfficiency: 0.85,
		BaseFmaxMHz:   252,
		PCIe:          PCIeModel{WriteLatencyUS: 16, WriteGBps: 11.0, ReadLatencyUS: 18, ReadGBps: 10.0},
		QuartusMajor:  18.1,
		EnqueueUS:     22,
		RouteCapacity: 1.45,
	}
	S10MX = &Board{
		Name:   "S10MX",
		SKU:    "1SM21CHU2F53E1VG",
		Family: "Stratix 10",
		Total:  Resources{ALUTs: 1405440, FFs: 2810880, RAMs: 6847, DSPs: 3960},
		Static: Resources{ALUTs: 13132, FFs: 20030, RAMs: 112, DSPs: 0},

		// Only one HBM2 pseudo-channel is used (§6.2): 12.8 GB/s.
		MemName:       "8 GB HBM2, 1 of 32 PCs used",
		PeakGBps:      12.8,
		MemEfficiency: 0.88,
		BaseFmaxMHz:   330,
		// Engineering sample with experimental BSP: very slow effective
		// host-to-device writes (Fig. 6.2, Appendix A).
		PCIe:          PCIeModel{WriteLatencyUS: 320, WriteGBps: 0.45, ReadLatencyUS: 60, ReadGBps: 1.8},
		QuartusMajor:  19.1,
		EnqueueUS:     28,
		RouteCapacity: 1.30,
	}
)

// Boards lists the three platforms in the order the thesis tabulates them.
var Boards = []*Board{S10MX, S10SX, A10}

// ByName returns the board with the given short name.
func ByName(name string) (*Board, error) {
	for _, b := range Boards {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("fpga: unknown board %q (have S10MX, S10SX, A10)", name)
}
