package aoc

import (
	"fmt"
	"math"

	"repro/internal/fpga"
	"repro/internal/ir"
)

// Design is the result of compiling a set of kernels into one bitstream: the
// equivalent of an .aocx plus the Quartus fit/route reports the thesis reads
// its area and fmax numbers from.
type Design struct {
	Name    string
	Board   *fpga.Board
	Options Options
	Kernels []*KernelModel

	// Area is the kernel system alone; TotalArea includes the static
	// partition (what the thesis's utilization percentages report against
	// the full chip).
	Area      fpga.Resources
	TotalArea fpga.Resources
	FmaxMHz   float64

	// Fits is false when any resource class overflows; FailReason then names
	// it. Routed is false when the worst kernel's congestion demand exceeds
	// the board's routing capacity (§6.5, Fig. 6.8).
	Fits       bool
	FailReason string
	Routed     bool
	// WorstDemand / Capacity expose the congestion margin for Fig. 6.8.
	WorstDemand float64
	Capacity    float64
}

// Synthesizable reports whether the bitstream would come out of Quartus.
func (d *Design) Synthesizable() bool { return d.Fits && d.Routed }

// Err returns a descriptive error when the design cannot be built.
func (d *Design) Err() error {
	if d.Fits && d.Routed {
		return nil
	}
	if !d.Fits {
		return fmt.Errorf("design %s does not fit on %s: insufficient %s (kernel system %+v, usable %+v)",
			d.Name, d.Board.Name, d.FailReason, d.Area, d.Board.Usable())
	}
	return fmt.Errorf("design %s fails routing on %s: congestion demand %.0f exceeds capacity %.0f",
		d.Name, d.Board.Name, d.WorstDemand, d.Capacity)
}

// Utilization returns logic/RAM/DSP utilization fractions against the full
// chip, as the thesis's tables report.
func (d *Design) Utilization() (logic, ram, dsp float64) {
	l, _, r, ds := d.TotalArea.Utilization(d.Board.Total)
	return l, r, ds
}

// Model returns the compiled model for a kernel by name.
func (d *Design) Model(name string) *KernelModel {
	for _, m := range d.Kernels {
		if m.Kernel.Name == name {
			return m
		}
	}
	return nil
}

// Compile analyzes all kernels and runs the fit/route/fmax models,
// producing the design report. An error is returned only for malformed
// kernels; resource and routing failures are reported in the Design, the way
// AOC/Quartus report them.
func Compile(name string, kernels []*ir.Kernel, board *fpga.Board, opts Options) (*Design, error) {
	return CompileCached(name, kernels, board, opts, nil)
}

// CompileCached is Compile with per-kernel analysis memoized in cache (nil
// disables memoization). Safe for concurrent use: the package holds no
// mutable state — the calibration constants and the routeCapacity table are
// read-only after init — and every Analyze builds its model from scratch
// without touching the caller's IR.
func CompileCached(name string, kernels []*ir.Kernel, board *fpga.Board, opts Options, cache *CompileCache) (*Design, error) {
	d := &Design{Name: name, Board: board, Options: opts}
	seen := map[string]bool{}
	for _, k := range kernels {
		if seen[k.Name] {
			return nil, fmt.Errorf("aoc: duplicate kernel name %q in design %s", k.Name, name)
		}
		seen[k.Name] = true
		m, err := cache.analyze(k, board, opts)
		if err != nil {
			return nil, err
		}
		d.Kernels = append(d.Kernels, m)
		d.Area = d.Area.Add(m.Area)
	}
	d.TotalArea = d.Area.Add(board.Static)

	// Fit check against the usable fabric, with the router's practical
	// headroom limits (designs very close to full do not close).
	usable := board.Usable()
	d.Fits = true
	if ok, class := d.Area.FitsIn(usable); !ok {
		d.Fits, d.FailReason = false, class
	} else {
		if float64(d.Area.ALUTs) > routeLogicLimit*float64(usable.ALUTs) {
			d.Fits, d.FailReason = false, "logic (fitter headroom)"
		}
		if float64(d.Area.RAMs) > routeRAMLimit*float64(usable.RAMs) {
			d.Fits, d.FailReason = false, "BRAM (fitter headroom)"
		}
	}

	// Routing: worst single kernel's congestion demand vs board capacity.
	d.Capacity = routeCapacity[board.Name]
	for _, m := range d.Kernels {
		if m.Demand > d.WorstDemand {
			d.WorstDemand = m.Demand
		}
	}
	d.Routed = d.WorstDemand <= d.Capacity

	d.FmaxMHz = d.fmax()
	return d, nil
}

// fmax models timing closure: the base kernel clock degraded by (1) overall
// utilization, (2) the congestion demand of the worst kernel (fanout of wide
// LSU buses into the DSP array), and (3) the number of kernel clock regions.
func (d *Design) fmax() float64 {
	logic, _, ram, dsp := d.Area.Utilization(d.Board.Usable())
	util := 0.5*logic + 0.3*ram + 0.2*dsp
	f := d.Board.BaseFmaxMHz
	f *= 1 - fmaxUtilPenalty*util*util
	if d.Capacity > 0 {
		r := d.WorstDemand / d.Capacity
		if r > 1 {
			r = 1
		}
		f *= 1 - fmaxDemandPenalty*r*r
	}
	n := len(d.Kernels)
	if n > 1 {
		f *= 1 - fmaxKernelPenalty*float64(n-1)
	}
	return math.Max(f, fmaxFloorMHz)
}

// RoutingMap renders an ASCII routing-utilization heatmap in the spirit of
// Fig. 6.8: a grid of fabric regions whose saturation follows the congestion
// demand, with hot regions (>95%) marked '#'. Deterministic per design.
func (d *Design) RoutingMap(cols, rows int) []string {
	// Regions covered by the kernel system scale with logic utilization; the
	// hot fraction scales with demand/capacity.
	logic, _, _, _ := d.Area.Utilization(d.Board.Usable())
	ratio := 0.0
	if d.Capacity > 0 {
		ratio = d.WorstDemand / d.Capacity
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = make([]byte, cols)
		for c := range grid[r] {
			grid[r][c] = '.'
		}
	}
	total := cols * rows
	used := int(float64(total) * math.Min(1, logic*1.6))
	hot := int(float64(used) * math.Min(1, ratio*ratio))
	// Fill deterministically in a column-major serpentine, hottest first
	// (placement packs the kernel system from one die edge).
	idx := 0
	for c := 0; c < cols && idx < used; c++ {
		for r := 0; r < rows && idx < used; r++ {
			rr := r
			if c%2 == 1 {
				rr = rows - 1 - r
			}
			ch := byte('o') // moderate utilization
			if idx < hot {
				ch = '#'
			} else if idx >= used*3/4 {
				ch = '-' // fringe regions
			}
			grid[rr][c] = ch
			idx++
		}
	}
	out := make([]string, rows)
	for r := range grid {
		out[r] = string(grid[r])
	}
	return out
}
