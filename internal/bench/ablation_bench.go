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

// ablationRow is one design-choice measurement.
type ablationRow struct {
	Name   string
	Metric string
	Value  float64
}

// ablations quantifies each design choice DESIGN.md calls out, using the
// full deployments (kernel-level ablations live in bench_test.go):
//
//   - fused+cached schedules vs the naive TVM default (folded LeNet);
//   - channels vs buffered hand-off (LeNet Unrolling -> Channels);
//   - autorun vs host-dispatched weight-less kernels;
//   - concurrent execution vs a single queue;
//   - the Listing 5.11 symbolic-stride workaround, end to end on MobileNet.
func ablations() ([]ablationRow, string, error) {
	var rows []ablationRow
	add := func(name, metric string, v float64) {
		rows = append(rows, ablationRow{Name: name, Metric: metric, Value: v})
	}

	lenet, err := relay.Lower(nn.LeNet5())
	if err != nil {
		return nil, "", err
	}
	runPipe := func(v host.PipeVariant, ce bool) (float64, error) {
		p, err := host.BuildPipelined(lenet, v, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			return 0, err
		}
		r, err := p.Run(20, ce, false)
		if err != nil {
			return 0, err
		}
		return r.FPS, nil
	}
	base, err := runPipe(host.PipeBase, false)
	if err != nil {
		return nil, "", err
	}
	unroll, err := runPipe(host.PipeUnroll, false)
	if err != nil {
		return nil, "", err
	}
	chans, err := runPipe(host.PipeChannels, false)
	if err != nil {
		return nil, "", err
	}
	autorun, err := runPipe(host.PipeAutorun, false)
	if err != nil {
		return nil, "", err
	}
	autorunCE, err := runPipe(host.PipeAutorun, true)
	if err != nil {
		return nil, "", err
	}
	add("unrolling (F×F + dense)", "speedup vs base", unroll/base)
	add("channels + fusion + write caches", "speedup vs unrolling", chans/unroll)
	add("autorun kernels", "speedup vs channels", autorun/chans)
	add("concurrent execution", "speedup vs serial autorun", autorunCE/autorun)

	// Symbolic-stride workaround, end to end on MobileNet (S10SX).
	mob, err := relay.Lower(nn.MobileNetV1())
	if err != nil {
		return nil, "", err
	}
	cfgOn := host.MobileNetConfig(fpga.S10SX)
	cfgOff := host.MobileNetConfig(fpga.S10SX)
	cfgOff.Workaround = false
	runFolded := func(cfg host.FoldedConfig) (fps float64, logic float64, ok bool, err error) {
		dep, err := host.BuildFolded(mob, cfg, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			return 0, 0, false, err
		}
		logic, _, _ = dep.Design.Utilization()
		if !dep.Design.Synthesizable() {
			return 0, logic, false, nil
		}
		r, err := dep.Run(2, false)
		if err != nil {
			return 0, 0, false, err
		}
		return r.FPS, logic, true, nil
	}
	fpsOn, logicOn, okOn, err := runFolded(cfgOn)
	if err != nil {
		return nil, "", err
	}
	fpsOff, logicOff, okOff, err := runFolded(cfgOff)
	if err != nil {
		return nil, "", err
	}
	if okOn {
		if okOff {
			add("stride-1 workaround (Listing 5.11)", "MobileNet speedup", fpsOn/fpsOff)
		} else {
			add("stride-1 workaround (Listing 5.11)", "without it: does not synthesize (logic x)", logicOff/logicOn)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== Ablations: contribution of each design choice ==\n\n")
	tb := &table{header: []string{"Design choice", "Metric", "Value"}}
	for _, r := range rows {
		tb.add(r.Name, r.Metric, speedup(r.Value))
	}
	b.WriteString(tb.String())
	if okOn && !okOff {
		fmt.Fprintf(&b, "\nWithout the workaround the MobileNet design does not synthesize at all\n(nonaligned replicated LSUs, logic %.0f%% vs %.0f%%) — §5.3's point exactly.\n", logicOff*100, logicOn*100)
	}
	_ = fpsOff
	return rows, b.String(), nil
}
