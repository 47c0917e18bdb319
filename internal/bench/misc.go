package bench

import (
	"fmt"
	"strings"

	"repro/internal/fpga"
)

// relatedWork reproduces Tables 6.17–6.19: the comparison against
// Caffeinated FPGAs (DiCecco et al.), TensorFlow-to-Cloud-FPGAs (Hadjis et
// al.) and DNNWeaver (Sharma et al.). The external numbers are quoted from
// the respective papers as the thesis quotes them; our side is measured from
// the simulated deployments passed in.
type relatedWorkInputs struct {
	// ResNet34Conv3x3GFLOPS is our measured 3×3 s=1 convolution throughput
	// in ResNet-34 on the S10SX (Table 6.17's comparison point).
	ResNet34Conv3x3GFLOPS float64
	// LeNetLatencyMS and LeNetGFLOPS on the S10SX (Table 6.18).
	LeNetLatencyMS float64
	LeNetGFLOPS    float64
	// ResNet34GFLOPS on the S10SX (Table 6.18 right half).
	ResNet34GFLOPS float64
	// MobileNetGFLOPS and LeNet speedup vs TF-CPU on the A10 (Table 6.19).
	MobileNetA10GFLOPS float64
	LeNetVsCPU         float64
	MobileNetVsCPU     float64
}

// relatedWork renders the three comparison tables.
func relatedWork(in relatedWorkInputs) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Table 6.17: vs Caffeinated FPGAs (DiCecco et al. 2016) ==\n\n")
	t1 := &table{header: []string{"", "DiCecco et al.", "This work"}}
	t1.add("Workload", "3x3 convs, 4 nets (geomean)", "3x3 s1 convs in ResNet-34")
	t1.add("Batch size", "32-64", "1")
	t1.add("Platform", "Virtex 7 XC7VX690T-2", "Stratix 10 SX")
	t1.add("Precision", "32b float", "32b float")
	t1.add("fmax (MHz)", "200", "(model)")
	t1.add("GFLOPS", "50", fmtNum(in.ResNet34Conv3x3GFLOPS))
	t1.add("Ratio", "1.00x", speedup(in.ResNet34Conv3x3GFLOPS/50))
	b.WriteString(t1.String())

	fmt.Fprintf(&b, "\n== Table 6.18: vs TensorFlow to Cloud FPGAs (Hadjis et al. 2019) ==\n\n")
	t2 := &table{header: []string{"", "Hadjis et al.", "This work"}}
	t2.add("Workload", "LeNet", "LeNet")
	t2.add("Platform", "Xilinx UltraScale+ VU9P", "Stratix 10 SX")
	t2.add("Precision", "32b fixed (Q10.22)", "32b float")
	t2.add("Latency (ms)", "0.656", fmt.Sprintf("%.3f", in.LeNetLatencyMS))
	t2.add("Speedup", "1.00x", speedup(0.656/in.LeNetLatencyMS))
	t2.add("", "", "")
	t2.add("Workload (2)", "ResNet-50", "ResNet-34")
	t2.add("GFLOPS", "36.1", fmtNum(in.ResNet34GFLOPS))
	t2.add("Ratio", "1.00x", speedup(in.ResNet34GFLOPS/36.1))
	b.WriteString(t2.String())

	fmt.Fprintf(&b, "\n== Table 6.19: vs DNNWeaver (Sharma et al. 2016) ==\n\n")
	t3 := &table{header: []string{"", "Sharma et al.", "This work"}}
	t3.add("Workload", "LeNet / AlexNet", "LeNet / MobileNetV1")
	t3.add("Platform", "Arria 10 GX", "Arria 10 GX")
	t3.add("Precision", "16b fixed (Q3.13)", "32b float")
	t3.add("LeNet vs CPU", "12x (Xeon-E3)", speedup(in.LeNetVsCPU)+" (Xeon-8280)")
	t3.add("AlexNet/MobileNet vs CPU", "4.2x (Xeon-E3)", speedup(in.MobileNetVsCPU)+" (Xeon-8280)")
	t3.add("GFLOPS (large net)", "184.33 (AlexNet)", fmtNum(in.MobileNetA10GFLOPS)+" (MobileNet)")
	t3.add("Ratio", "1.00x", speedup(in.MobileNetA10GFLOPS/184.33))
	b.WriteString(t3.String())
	return b.String()
}

// pubCounts is the Fig 7.1 survey data: publications with CNN/DNN/neural-
// network titles in FPGA/FPL/FCCM, per the thesis's count.
var pubCounts = []struct {
	Year  int
	Count int
}{
	{2015, 14}, {2016, 36}, {2017, 61}, {2018, 77}, {2019, 79}, {2020, 62},
}

// pubCount renders Fig 7.1.
func pubCount() string {
	labels := make([]string, len(pubCounts))
	vals := make([]float64, len(pubCounts))
	total := 0
	for i, p := range pubCounts {
		labels[i] = fmt.Sprintf("%d", p.Year)
		vals[i] = float64(p.Count)
		total += p.Count
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig 7.1: DNN publications in FPGA/FPL/FCCM (total %d) ==\n\n", total)
	b.WriteString(barChart("publications per year", labels, vals, ""))
	return b.String()
}

// transferRow is one Appendix A measurement.
type transferRow struct {
	Board     string
	Bytes     int
	WriteGBps float64
	ReadGBps  float64
}

// transferSpeeds reproduces Appendix A: effective host<->device bandwidth
// versus buffer size on each platform.
func transferSpeeds() ([]transferRow, string) {
	sizes := []int{4 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20}
	var rows []transferRow
	var b strings.Builder
	fmt.Fprintf(&b, "== Appendix A: FPGA buffer transfer speeds ==\n\n")
	tb := &table{header: []string{"Board", "Size", "Write GB/s", "Read GB/s"}}
	for _, board := range fpga.Boards {
		for _, sz := range sizes {
			w := float64(sz) / (board.PCIe.WriteTimeUS(sz) * 1e3)
			r := float64(sz) / (board.PCIe.ReadTimeUS(sz) * 1e3)
			rows = append(rows, transferRow{Board: board.Name, Bytes: sz, WriteGBps: w, ReadGBps: r})
			tb.add(board.Name, sizeLabel(sz), fmt.Sprintf("%.3f", w), fmt.Sprintf("%.3f", r))
		}
	}
	b.WriteString(tb.String())
	b.WriteString("\nSmall transfers are latency-bound; the S10MX engineering sample's writes\nstay far below its link capacity at every size (the Fig 6.2 bottleneck).\n")
	return rows, b.String()
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%d MiB", n>>20)
	default:
		return fmt.Sprintf("%d KiB", n>>10)
	}
}
