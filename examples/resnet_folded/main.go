// resnet_folded deploys ResNet-18 and ResNet-34 with folded execution,
// reproducing §6.4.3: the Stratix 10 boards run them (with the headline
// slowdown against the many-threaded CPU), while the Arria 10 cannot build
// the design for want of BRAM.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/aoc"
	"repro/internal/cpuref"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
)

func main() {
	depth := flag.Int("depth", 18, "ResNet depth: 18 or 34")
	flag.Parse()
	net := fmt.Sprintf("resnet%d", *depth)

	g, err := nn.ResNet(*depth)
	if err != nil {
		log.Fatal(err)
	}
	layers, err := relay.Lower(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ResNet-%d: %d fused layers, %.1fM params, %.2fG FLOPs\n\n",
		*depth, len(layers), float64(g.Params())/1e6, float64(g.FLOPs())/1e9)

	tf, threads, _ := cpuref.TFCPUFPS(net)
	gpu, _ := cpuref.GPUFPS(net)
	for _, board := range fpga.Boards {
		cfg := host.ResNetConfig(board)
		dep, err := host.BuildFolded(layers, cfg, board, aoc.DefaultOptions)
		if err != nil {
			log.Fatal(err)
		}
		if !dep.Design.Synthesizable() {
			fmt.Printf("%-6s %v\n", board.Name, dep.Design.Err())
			continue
		}
		r, err := dep.Run(3, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %5.2f FPS (%.1f GFLOPS, fmax %.0f MHz)  vs TF-CPU(%dT) %.2fx  vs GPU %.2fx\n",
			board.Name, r.FPS, r.FPS*float64(g.FLOPs())/1e9, dep.Design.FmaxMHz,
			threads, r.FPS/tf, r.FPS/gpu)
	}

	// The per-operation profile on the S10SX (Table 6.16).
	dep, err := host.BuildFolded(layers, host.ResNetConfig(fpga.S10SX), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := dep.ProfileOps()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-operation profile on the S10SX:")
	for _, p := range prof {
		fmt.Printf("  %-12s %5.1f%% of FLOPs  %6.1f GFLOPS  %5.1f%% of time\n",
			p.Class, p.FLOPShare*100, p.GFLOPS, p.TimeShare*100)
	}
}
