// mobilenet_folded deploys MobileNetV1 with folded (time-multiplexed
// parameterized kernels) execution on a chosen board, reproducing the §6.3.2
// story: the naive per-layer design's fate, the parameterized kernel set,
// the per-operation profile and the comparison against the CPU baselines.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/aoc"
	"repro/internal/bench"
	"repro/internal/cpuref"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
)

func main() {
	boardName := flag.String("board", "S10SX", "target board: S10MX, S10SX, A10")
	flag.Parse()
	board, err := fpga.ByName(*boardName)
	if err != nil {
		log.Fatal(err)
	}

	g := nn.MobileNetV1()
	layers, err := relay.Lower(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MobileNetV1: %d fused layers, %.2fM params, %.2fG FLOPs\n\n",
		len(layers), float64(g.Params())/1e6, float64(g.FLOPs())/1e9)

	// The base (naive per-layer) design.
	baseDep, err := host.BuildFolded(layers, bench.NaiveFolded, board, aoc.DefaultOptions)
	if err != nil {
		log.Fatal(err)
	}
	if baseDep.Design.Synthesizable() {
		rb, err := baseDep.Run(1, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("base bitstream: %d kernels, %.3f FPS\n", len(baseDep.Design.Kernels), rb.FPS)
	} else {
		fmt.Printf("base bitstream: %v\n", baseDep.Design.Err())
	}

	// The optimized folded deployment (Table 6.7 tiling for this board).
	cfg := host.MobileNetConfig(board)
	dep, err := host.BuildFolded(layers, cfg, board, aoc.DefaultOptions)
	if err != nil {
		log.Fatal(err)
	}
	if !dep.Design.Synthesizable() {
		log.Fatal(dep.Design.Err())
	}
	logic, ram, dsp := dep.Design.Utilization()
	fmt.Printf("optimized bitstream: %d parameterized kernels for %d layers, logic %.0f%% ram %.0f%% dsp %.0f%%, fmax %.0f MHz\n",
		len(dep.Design.Kernels), len(layers), logic*100, ram*100, dsp*100, dep.Design.FmaxMHz)

	prof, err := dep.ProfileOps()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-operation profile (one forward pass):")
	for _, p := range prof {
		fmt.Printf("  %-12s %5.1f%% of FLOPs  %6.1f GFLOPS  %5.1f%% of time\n",
			p.Class, p.FLOPShare*100, p.GFLOPS, p.TimeShare*100)
	}

	r, err := dep.Run(4, false)
	if err != nil {
		log.Fatal(err)
	}
	tf, threads, _ := cpuref.TFCPUFPS("mobilenetv1")
	gpu, _ := cpuref.GPUFPS("mobilenetv1")
	tvm1, _ := cpuref.TVMCPUFPS("mobilenetv1", 1)
	fmt.Printf("\nthroughput: %.1f FPS (%.1f GFLOPS)\n", r.FPS, r.FPS*float64(g.FLOPs())/1e9)
	fmt.Printf("  vs Keras/TF-CPU (%d threads): %.2fx\n", threads, r.FPS/tf)
	fmt.Printf("  vs TVM-1T:                    %.2fx\n", r.FPS/tvm1)
	fmt.Printf("  vs TF-cuDNN (GTX 1060):       %.2fx\n", r.FPS/gpu)
}
