package bench

import (
	"fmt"
	"strings"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
)

const ladderImages = 40

// ladderResult holds Table 6.4 / Fig 6.1 data: FPS per bitstream per board,
// serial and concurrent.
type ladderResult struct {
	Boards   []string
	Variants []string
	// FPS[board][variant], FPSCE[board][variant]
	FPS   map[string]map[string]float64
	FPSCE map[string]map[string]float64
	// Area[board][variant] carries the Table 6.5 fitter numbers.
	Area map[string]map[string]areaRow
}

// areaRow is one Table 6.5 cell group.
type areaRow struct {
	Logic, RAM, DSP float64
	FmaxMHz         float64
}

// lenetLadder reproduces Table 6.4, Fig 6.1 and Table 6.5: five bitstreams
// per board, serial and concurrent execution.
func lenetLadder() (*ladderResult, string, error) {
	layers, err := relay.Lower(nn.LeNet5())
	if err != nil {
		return nil, "", err
	}
	res := &ladderResult{
		FPS:   map[string]map[string]float64{},
		FPSCE: map[string]map[string]float64{},
		Area:  map[string]map[string]areaRow{},
	}
	for _, v := range host.PipeVariants {
		res.Variants = append(res.Variants, v.String())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Table 6.4 / Fig 6.1: LeNet-5 optimization ladder ==\n\n")
	tb := &table{header: []string{"Bitstream", "Board", "FPS", "FPS [CE]", "vs Base", "Logic", "RAM", "DSP", "fmax"}}
	for _, board := range fpga.Boards {
		res.Boards = append(res.Boards, board.Name)
		res.FPS[board.Name] = map[string]float64{}
		res.FPSCE[board.Name] = map[string]float64{}
		res.Area[board.Name] = map[string]areaRow{}
		var base float64
		for _, v := range host.PipeVariants {
			p, err := host.BuildPipelined(layers, v, board, aoc.DefaultOptions)
			if err != nil {
				return nil, "", err
			}
			serial, err := p.Run(ladderImages, false, false)
			if err != nil {
				return nil, "", err
			}
			ce, err := p.Run(ladderImages, true, false)
			if err != nil {
				return nil, "", err
			}
			logic, ram, dsp := p.Design.Utilization()
			row := areaRow{Logic: logic, RAM: ram, DSP: dsp, FmaxMHz: p.Design.FmaxMHz}
			res.FPS[board.Name][v.String()] = serial.FPS
			res.FPSCE[board.Name][v.String()] = ce.FPS
			res.Area[board.Name][v.String()] = row
			if v == host.PipeBase {
				base = serial.FPS
			}
			best := ce.FPS
			if serial.FPS > best {
				best = serial.FPS
			}
			tb.add(v.String(), board.Name,
				fmtNum(serial.FPS), fmtNum(ce.FPS), speedup(best/base),
				pct(logic), pct(ram), pct(dsp), fmt.Sprintf("%.0f", row.FmaxMHz))
		}
	}
	b.WriteString(tb.String())
	b.WriteString("\n")
	// Fig 6.1 as a bar chart per board (best of serial/CE).
	for _, board := range res.Boards {
		labels := []string{}
		vals := []float64{}
		for _, v := range res.Variants {
			labels = append(labels, v)
			vals = append(vals, res.FPS[board][v])
			labels = append(labels, v+" [CE]")
			vals = append(vals, res.FPSCE[board][v])
		}
		b.WriteString(barChart(fmt.Sprintf("Fig 6.1 (%s): LeNet FPS by bitstream", board), labels, vals, " FPS"))
		b.WriteString("\n")
	}
	return res, b.String(), nil
}

// profileResult holds Fig 6.2 data: runtime share by event kind.
type profileResult struct {
	// Share[board][bitstream][kind] in [0,1].
	Share map[string]map[string]map[string]float64
}

// lenetProfile reproduces Fig 6.2: the kernel/write/read breakdown for the
// Base and Autorun bitstreams on each platform, measured with the OpenCL
// event profiler enabled (which is why the thesis notes the overhead).
func lenetProfile() (*profileResult, string, error) {
	layers, err := relay.Lower(nn.LeNet5())
	if err != nil {
		return nil, "", err
	}
	res := &profileResult{Share: map[string]map[string]map[string]float64{}}
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig 6.2: LeNet runtime breakdown (OpenCL event profiling) ==\n\n")
	tb := &table{header: []string{"Board", "Bitstream", "Kernel", "Write", "Read"}}
	for _, board := range fpga.Boards {
		res.Share[board.Name] = map[string]map[string]float64{}
		for _, v := range []host.PipeVariant{host.PipeBase, host.PipeAutorun} {
			p, err := host.BuildPipelined(layers, v, board, aoc.DefaultOptions)
			if err != nil {
				return nil, "", err
			}
			r, err := p.Run(20, false, true)
			if err != nil {
				return nil, "", err
			}
			total := r.Breakdown["kernel"] + r.Breakdown["write"] + r.Breakdown["read"]
			share := map[string]float64{}
			for k, t := range r.Breakdown {
				share[k] = t / total
			}
			res.Share[board.Name][v.String()] = share
			tb.add(board.Name, v.String(), pct(share["kernel"]), pct(share["write"]), pct(share["read"]))
		}
	}
	b.WriteString(tb.String())
	return res, b.String(), nil
}

// inferenceResult holds one network's Tables 6.9–6.15 comparison.
type inferenceResult struct {
	Net string
	// Per-board optimized and base FPS (0 when the design does not build).
	FPS, BaseFPS map[string]float64
	// FailReason is set when a board cannot build the design.
	FailReason map[string]string
	GFLOPS     map[string]float64
	TFCPUFPS   float64
	TVM1T      float64
	TVMBest    float64
	TVMBestN   int
	GPUFPS     float64
	FLOPs      int64
	Params     int64
}

// lenetInference reproduces Tables 6.9/6.10 and Fig 6.4: the optimized
// pipelined deployment on all three boards against the CPU/GPU baselines.
func lenetInference() (*inferenceResult, string, error) {
	g := nn.LeNet5()
	layers, err := relay.Lower(g)
	if err != nil {
		return nil, "", err
	}
	res := newInference("lenet5", g.FLOPs(), g.Params())
	for _, board := range fpga.Boards {
		base, err := host.BuildPipelined(layers, host.PipeBase, board, aoc.DefaultOptions)
		if err != nil {
			return nil, "", err
		}
		rb, err := base.Run(ladderImages, false, false)
		if err != nil {
			return nil, "", err
		}
		res.BaseFPS[board.Name] = rb.FPS
		opt, err := host.BuildPipelined(layers, host.PipeTVMAutorun, board, aoc.DefaultOptions)
		if err != nil {
			return nil, "", err
		}
		ro, err := opt.Run(ladderImages, true, false)
		if err != nil {
			return nil, "", err
		}
		res.FPS[board.Name] = ro.FPS
		res.GFLOPS[board.Name] = ro.FPS * float64(res.FLOPs) / 1e9
	}
	report, err := renderInference(res, "Tables 6.9/6.10 + Fig 6.4: LeNet-5 inference")
	return res, report, err
}

func newInference(net string, flops, params int64) *inferenceResult {
	return &inferenceResult{
		Net: net, FLOPs: flops, Params: params,
		FPS: map[string]float64{}, BaseFPS: map[string]float64{},
		GFLOPS: map[string]float64{}, FailReason: map[string]string{},
	}
}

func fillBaselines(res *inferenceResult) error {
	var err error
	res.TFCPUFPS, _, err = cpurefTF(res.Net)
	if err != nil {
		return err
	}
	res.TVM1T, err = cpurefTVM(res.Net, 1)
	if err != nil {
		return err
	}
	res.TVMBestN, res.TVMBest, err = cpurefBestTVM(res.Net)
	if err != nil {
		return err
	}
	res.GPUFPS, err = cpurefGPU(res.Net)
	return err
}

func renderInference(res *inferenceResult, title string) (string, error) {
	if err := fillBaselines(res); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n\n", title)
	fmt.Fprintf(&b, "Network: %s   FP ops: %.4g   Params: %.4g\n\n", res.Net, float64(res.FLOPs), float64(res.Params))
	tb := &table{header: []string{"Platform", "FPS", "GFLOPS", "vs Base", "vs TF-CPU", "vs TVM-1T", "vs GPU"}}
	for _, board := range []string{"S10MX", "S10SX", "A10"} {
		if reason, failed := res.FailReason[board]; failed {
			tb.add(board, "na ("+reason+")", "na", "-", "-", "-", "-")
			continue
		}
		fps := res.FPS[board]
		base := res.BaseFPS[board]
		vsBase := "-"
		if base > 0 {
			vsBase = speedup(fps / base)
		}
		tb.add(board, fmtNum(fps), fmtNum(res.GFLOPS[board]), vsBase,
			speedup(fps/res.TFCPUFPS), speedup(fps/res.TVM1T), speedup(fps/res.GPUFPS))
	}
	tb.add("TF-CPU", fmtNum(res.TFCPUFPS), "", "", "1.00x", "", "")
	tb.add("TVM-1T", fmtNum(res.TVM1T), "", "", "", "1.00x", "")
	tb.add(fmt.Sprintf("TVM-%dT (best)", res.TVMBestN), fmtNum(res.TVMBest), "", "", "", "", "")
	tb.add("TF-cuDNN (GTX1060)", fmtNum(res.GPUFPS), "", "", "", "", "1.00x")
	b.WriteString(tb.String())
	b.WriteString("\n")

	// Fig 6.4-style chart: TVM thread sweep plus accelerator lines.
	labels := []string{}
	vals := []float64{}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 56} {
		f, err := cpurefTVM(res.Net, n)
		if err != nil {
			return "", err
		}
		labels = append(labels, fmt.Sprintf("TVM-%dT", n))
		vals = append(vals, f)
	}
	labels = append(labels, "TF-CPU", "TF-cuDNN")
	vals = append(vals, res.TFCPUFPS, res.GPUFPS)
	for _, board := range []string{"S10MX", "S10SX", "A10"} {
		if _, failed := res.FailReason[board]; !failed {
			labels = append(labels, "FPGA "+board)
			vals = append(vals, res.FPS[board])
		}
	}
	b.WriteString(barChart("FPS comparison", labels, vals, " FPS"))
	return b.String(), nil
}
