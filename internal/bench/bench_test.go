package bench

import (
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/fpga"
)

// The bench tests assert the thesis's qualitative results: who wins, by
// roughly what factor, and where designs stop fitting. Exact figures are
// model outputs; the bands are deliberately loose (see EXPERIMENTS.md for
// the paper-vs-measured accounting).

func TestLeNetLadderShapes(t *testing.T) {
	res, rep, err := lenetLadder()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "Table 6.4") {
		t.Fatal("report header missing")
	}
	for _, board := range res.Boards {
		fps := res.FPS[board]
		base := fps["Base"]
		best := res.FPSCE[board]["TVM-Autorun"]
		if base <= 0 || best <= base {
			t.Fatalf("%s: best (%.0f) must beat base (%.0f)", board, best, base)
		}
		// Thesis band: 3-10x across boards; allow slack.
		if s := best / base; s < 2.5 || s > 25 {
			t.Errorf("%s: ladder speedup %.1fx outside band", board, s)
		}
		// Monotone: each step >= previous (serial execution).
		order := []string{"Base", "Unrolling", "Channels", "Autorun", "TVM-Autorun"}
		for i := 1; i < len(order); i++ {
			if fps[order[i]] < fps[order[i-1]]*0.99 {
				t.Errorf("%s: %s (%.0f) regressed vs %s (%.0f)", board,
					order[i], fps[order[i]], order[i-1], fps[order[i-1]])
			}
		}
		// CE never hurts channelized bitstreams.
		if res.FPSCE[board]["Autorun"] < fps["Autorun"]*0.99 {
			t.Errorf("%s: concurrent execution regressed autorun", board)
		}
	}
	// The S10SX is the fastest optimized deployment (Table 6.9).
	if !(res.FPSCE["S10SX"]["TVM-Autorun"] > res.FPSCE["S10MX"]["TVM-Autorun"]) {
		t.Error("S10SX must beat S10MX for optimized LeNet")
	}
	// Unrolling helps the S10MX (no auto-unroll) more than the S10SX.
	mx := res.FPS["S10MX"]["Unrolling"] / res.FPS["S10MX"]["Base"]
	sx := res.FPS["S10SX"]["Unrolling"] / res.FPS["S10SX"]["Base"]
	if mx <= sx {
		t.Errorf("unrolling gain on S10MX (%.2fx) must exceed S10SX (%.2fx) — Quartus auto-unroll", mx, sx)
	}
	// Table 6.5 area trends: unrolling raises DSP use; channels cut RAM
	// (activations leave global memory); autorun changes nothing.
	for _, board := range res.Boards {
		area := res.Area[board]
		if area["Unrolling"].DSP < area["Base"].DSP {
			t.Errorf("%s: unrolling must not reduce DSP use", board)
		}
		if area["Channels"].RAM >= area["Unrolling"].RAM {
			t.Errorf("%s: channels must cut RAM vs unrolling (%v vs %v)",
				board, area["Channels"].RAM, area["Unrolling"].RAM)
		}
		if area["Autorun"] != area["Channels"] {
			t.Errorf("%s: autorun must not change area/fmax", board)
		}
	}
}

func TestLeNetProfileShapes(t *testing.T) {
	res, _, err := lenetProfile()
	if err != nil {
		t.Fatal(err)
	}
	// Fig 6.2: once kernels are fast (Autorun bitstream), the S10MX spends
	// most of its time in buffer writes, unlike the S10SX.
	mx := res.Share["S10MX"]["Autorun"]["write"]
	sx := res.Share["S10SX"]["Autorun"]["write"]
	if mx <= sx || mx < 0.4 {
		t.Fatalf("S10MX write share %.2f must dominate (S10SX %.2f)", mx, sx)
	}
	// And on every board the base bitstream is kernel-dominated.
	for b, shares := range res.Share {
		if shares["Base"]["kernel"] < 0.5 {
			t.Fatalf("%s base must be kernel-bound: %v", b, shares["Base"])
		}
	}
}

func TestLeNetInferenceCrossovers(t *testing.T) {
	res, rep, err := lenetInference()
	if err != nil {
		t.Fatal(err)
	}
	if err := fillBaselines(res); err != nil {
		t.Fatal(err)
	}
	// Table 6.10 shape: the optimized S10SX beats TF-CPU and the GPU.
	sx := res.FPS["S10SX"]
	if sx <= res.TFCPUFPS {
		t.Fatalf("S10SX LeNet (%.0f) must beat TF-CPU (%.0f)", sx, res.TFCPUFPS)
	}
	if sx <= res.GPUFPS {
		t.Fatalf("S10SX LeNet (%.0f) must beat the GTX 1060 (%.0f)", sx, res.GPUFPS)
	}
	// All FPGA deployments beat their own base.
	for _, b := range []string{"S10MX", "S10SX", "A10"} {
		if res.FPS[b] <= res.BaseFPS[b] {
			t.Fatalf("%s optimized must beat base", b)
		}
	}
	if !strings.Contains(rep, "FPS comparison") {
		t.Fatal("missing figure")
	}
}

func TestTilingSweepShapes(t *testing.T) {
	res, rep, err := TilingSweep(fpga.A10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("want 7 configurations, got %d", len(res.Rows))
	}
	// DSPs grow with the tile volume; improvement grows with DSPs overall
	// (Fig 6.3): compare the smallest and largest routed configs.
	smallest, largest := res.Rows[2], res.Rows[6] // cfg3 (7/8/4), cfg7 (7/16/8)
	if largest.Routed && smallest.Routed {
		if largest.DSPs <= smallest.DSPs {
			t.Fatalf("cfg7 DSPs (%d) must exceed cfg3 (%d)", largest.DSPs, smallest.DSPs)
		}
		if largest.Improvement <= smallest.Improvement {
			t.Fatalf("cfg7 improvement must exceed cfg3")
		}
	}
	// fmax degrades for the big tiles (§6.3.2): cfg5 (7/8/16) well below
	// cfg3 (7/8/4).
	var cfg3, cfg5 TilingRow
	for _, r := range res.Rows {
		if r.Config.Index == 3 {
			cfg3 = r
		}
		if r.Config.Index == 5 {
			cfg5 = r
		}
	}
	if cfg5.FmaxMHz >= cfg3.FmaxMHz {
		t.Fatalf("large tiles must degrade fmax: cfg5 %.0f vs cfg3 %.0f", cfg5.FmaxMHz, cfg3.FmaxMHz)
	}
	// Improvements land in a generous band around the thesis's 64-123x.
	for _, r := range res.Rows {
		if !r.Routed {
			continue
		}
		if r.Improvement < 20 || r.Improvement > 3000 {
			t.Errorf("cfg%d improvement %.0fx implausible", r.Config.Index, r.Improvement)
		}
	}
	if !strings.Contains(rep, "Fig 6.3") {
		t.Fatal("figure missing")
	}
}

func TestRoutingFailuresMatchThesis(t *testing.T) {
	cases, _, err := RoutingFailures()
	if err != nil {
		t.Fatal(err)
	}
	expect := map[string]bool{
		"S10SX 7/16/4": true, "S10SX 7/16/8": false,
		"S10MX 7/32/4": true, "S10MX 7/32/8": false,
		"A10 7/8/8": true, "A10 7/8/16": true,
	}
	for _, c := range cases {
		key := c.Board + " " + strings.Join([]string{itoa(c.W2vec), itoa(c.C2vec), itoa(c.C1vec)}, "/")
		want, ok := expect[key]
		if !ok {
			continue
		}
		if c.Routed != want {
			t.Errorf("%s: routed=%v, thesis says %v", key, c.Routed, want)
		}
	}
}

func itoa(n int) string {
	return strings.TrimSpace(strings.Replace(string(rune('0'+n%10)), "", "", -1))
}

func TestRoutingMapRenders(t *testing.T) {
	rep, err := RoutingMap()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "#") || !strings.Contains(rep, "FAILED") {
		t.Fatalf("routing map must show hot regions and the failure:\n%s", rep)
	}
}

func TestMobileNetInferenceCrossovers(t *testing.T) {
	res, _, err := foldedInference("mobilenetv1")
	if err != nil {
		t.Fatal(err)
	}
	if err := fillBaselines(res); err != nil {
		t.Fatal(err)
	}
	// §6.4.2: base fails on the A10, optimized fits everywhere.
	if _, failed := res.FailReason["A10"]; failed {
		t.Fatal("optimized MobileNet must fit the A10")
	}
	if res.BaseFPS["A10"] != 0 {
		t.Fatal("base MobileNet must not fit the A10")
	}
	for _, b := range []string{"S10MX", "S10SX"} {
		if res.BaseFPS[b] <= 0 {
			t.Fatalf("base MobileNet must fit the %s", b)
		}
		if imp := res.FPS[b] / res.BaseFPS[b]; imp < 50 {
			t.Fatalf("%s improvement %.0fx too small (thesis: 84-184x)", b, imp)
		}
	}
	// Crossovers: FPGA ~ TF-CPU (0.8-1.4x in the thesis), beats TVM-1T,
	// loses to the GPU.
	sx := res.FPS["S10SX"]
	if r := sx / res.TFCPUFPS; r < 0.6 || r > 2.5 {
		t.Fatalf("S10SX/TF-CPU = %.2f outside thesis band", r)
	}
	if sx <= res.TVM1T {
		t.Fatal("S10SX must beat TVM-1T")
	}
	if sx >= res.GPUFPS {
		t.Fatal("the GTX 1060 must beat the MobileNet accelerator")
	}
}

func TestResNetInferenceCrossovers(t *testing.T) {
	for _, net := range []string{"resnet18", "resnet34"} {
		res, _, err := foldedInference(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := fillBaselines(res); err != nil {
			t.Fatal(err)
		}
		// §6.4.3: the A10 cannot build ResNet (BRAM); the S10s can.
		if reason, failed := res.FailReason["A10"]; !failed || !strings.Contains(reason, "BRAM") {
			t.Fatalf("%s must fail on the A10 with BRAM, got %q", net, res.FailReason["A10"])
		}
		for _, b := range []string{"S10MX", "S10SX"} {
			if res.FPS[b] <= 0 {
				t.Fatalf("%s must build on the %s", net, b)
			}
		}
		// The headline slowdown: FPGA loses to TF-CPU (0.24-0.43x in the
		// thesis) and loses heavily to the GPU.
		sx := res.FPS["S10SX"]
		if r := sx / res.TFCPUFPS; r >= 0.8 {
			t.Fatalf("%s S10SX/TF-CPU = %.2f; thesis reports a clear slowdown", net, r)
		}
		if r := sx / res.GPUFPS; r >= 0.4 {
			t.Fatalf("%s must lose heavily to the GPU, got %.2f", net, r)
		}
		// But still faster than its own base.
		if res.BaseFPS["S10SX"] > 0 && res.FPS["S10SX"] <= res.BaseFPS["S10SX"] {
			t.Fatalf("%s optimized must beat base", net)
		}
	}
}

func TestOpsProfilesShapes(t *testing.T) {
	mob, _, err := opsProfile("mobilenetv1")
	if err != nil {
		t.Fatal(err)
	}
	for board, prof := range mob {
		classes := map[string]float64{}
		gflops := map[string]float64{}
		for _, p := range prof {
			classes[p.Class] = p.FLOPShare
			gflops[p.Class] = p.GFLOPS
		}
		// Table 6.8: 1x1 convs carry ~94.8% of FLOPs and run fastest.
		if classes["1x1 conv"] < 0.92 {
			t.Errorf("%s: 1x1 FLOP share %.2f", board, classes["1x1 conv"])
		}
		if gflops["1x1 conv"] <= gflops["3x3 DW conv"] {
			t.Errorf("%s: 1x1 GFLOPS must exceed depthwise", board)
		}
	}
	r34, _, err := opsProfile("resnet34")
	if err != nil {
		t.Fatal(err)
	}
	for board, prof := range r34 {
		for _, p := range prof {
			if p.Class == "3x3 conv" && p.FLOPShare < 0.9 {
				t.Errorf("%s: ResNet-34 3x3 share %.2f, want >90%% (Table 6.16)", board, p.FLOPShare)
			}
		}
	}
}

func TestKernelTables(t *testing.T) {
	mob, err := kernelTable("mobilenetv1")
	if err != nil || !strings.Contains(mob, "7/32/4") {
		t.Fatalf("MobileNet kernel table wrong: %v\n%s", err, mob)
	}
	rn, err := kernelTable("resnet18")
	if err != nil || !strings.Contains(rn, "7/8/3/3") {
		t.Fatalf("ResNet kernel table wrong: %v", err)
	}
	if _, err := kernelTable("vgg"); err == nil {
		t.Fatal("unknown net must error")
	}
}

func TestTransferSpeedsShapes(t *testing.T) {
	rows, rep := transferSpeeds()
	if !strings.Contains(rep, "Appendix A") {
		t.Fatal("header missing")
	}
	// Bandwidth grows with size (latency amortized), and the S10MX writes
	// are the slowest at every size.
	byBoard := map[string][]transferRow{}
	for _, r := range rows {
		byBoard[r.Board] = append(byBoard[r.Board], r)
	}
	for board, rs := range byBoard {
		for i := 1; i < len(rs); i++ {
			if rs[i].WriteGBps < rs[i-1].WriteGBps {
				t.Fatalf("%s: write bandwidth not monotone in size", board)
			}
		}
	}
	for i := range byBoard["S10MX"] {
		if byBoard["S10MX"][i].WriteGBps >= byBoard["S10SX"][i].WriteGBps {
			t.Fatal("S10MX writes must be slowest")
		}
	}
}

func TestPubCount(t *testing.T) {
	rep := pubCount()
	if !strings.Contains(rep, "329") || !strings.Contains(rep, "2018") {
		t.Fatalf("pubcount must total 329 over the survey years:\n%s", rep)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
	rep, err := Run("pubcount")
	if err != nil || rep == "" {
		t.Fatal("pubcount must run")
	}
	rep, err = Run("mobilenet-kernels")
	if err != nil || !strings.Contains(rep, "Table 6.7") {
		t.Fatal("mobilenet-kernels must run")
	}
}

func TestDSEExperimentBeatsOrMatchesHandConfig(t *testing.T) {
	results, rep, err := DSEExperiment(dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "design-space exploration") {
		t.Fatal("report header missing")
	}
	for _, r := range results {
		if r.BestTimeMS > r.HandTimeMS*1.02 {
			t.Errorf("%s: DSE pick (%.1f ms) must match or beat hand config (%.1f ms)",
				r.Board, r.BestTimeMS, r.HandTimeMS)
		}
		if r.Evaluated == 0 {
			t.Errorf("%s: nothing evaluated", r.Board)
		}
	}
}

func TestQuantizationProjectionShapes(t *testing.T) {
	results, rep, err := quantizationProjection()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "int8") {
		t.Fatal("report header missing")
	}
	for _, r := range results {
		if !r.FP32Fits {
			continue
		}
		if !r.Int8Fits {
			continue
		}
		// int8 must never be slower and must use fewer DSPs (packing).
		if r.Int8FPS < r.FP32FPS {
			t.Errorf("%s/%s: int8 slower than fp32", r.Net, r.Board)
		}
		if r.Int8DSPs >= r.FP32DSPs {
			t.Errorf("%s/%s: int8 DSPs %d not below fp32 %d", r.Net, r.Board, r.Int8DSPs, r.FP32DSPs)
		}
	}
	// The bandwidth-bound ResNet must gain more from int8 than the
	// compute-bound MobileNet (the §8.1 prediction).
	var mobGain, resGain float64
	for _, r := range results {
		if r.Board != "S10SX" || !r.FP32Fits || !r.Int8Fits {
			continue
		}
		g := r.Int8FPS / r.FP32FPS
		if r.Net == "mobilenetv1" {
			mobGain = g
		}
		if r.Net == "resnet18" {
			resGain = g
		}
	}
	if resGain <= mobGain {
		t.Errorf("ResNet int8 gain (%.2fx) should exceed MobileNet's (%.2fx)", resGain, mobGain)
	}
}

func TestAblationsExperiment(t *testing.T) {
	rows, rep, err := ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("expected at least 5 ablation rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Value <= 1.0 {
			t.Errorf("%s: ablation value %.2f should show a benefit", r.Name, r.Value)
		}
	}
	if !strings.Contains(rep, "Listing 5.11") {
		t.Fatal("workaround ablation missing")
	}
}

func TestAlexNetComparison(t *testing.T) {
	res, rep, err := alexNetComparison()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Synthesizable {
		t.Fatalf("AlexNet must deploy on the A10: %s", res.FailReason)
	}
	// The thesis's proxy ratio (MobileNet vs DNNWeaver AlexNet) was 0.11x;
	// the direct comparison must land in the same regime: far below 1.
	if r := res.GFLOPS / res.DNNWeaver; r <= 0 || r > 0.5 {
		t.Fatalf("AlexNet/DNNWeaver ratio %.3f outside the expected regime", r)
	}
	if !strings.Contains(rep, "184.33") {
		t.Fatal("DNNWeaver anchor missing from report")
	}
}

func TestGoogLeNetFeasibility(t *testing.T) {
	results, rep, err := GoogLeNetFeasibility()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "inception") && !strings.Contains(rep, "Inception") {
		t.Fatal("report header missing")
	}
	var sx *GoogLeNetResult
	for i := range results {
		if results[i].Board == "S10SX" {
			sx = &results[i]
		}
	}
	if sx == nil || !sx.Synthesizable {
		t.Fatalf("GoogLeNet must deploy on the S10SX: %+v", results)
	}
	// Folding: >100 layers onto a small kernel set.
	if sx.Layers < 100 || sx.Kernels > 20 {
		t.Fatalf("folding shape wrong: %d layers on %d kernels", sx.Layers, sx.Kernels)
	}
	// FP32 compiler-generated flow: single-digit FPS, far below overlays.
	if sx.FPS <= 0.5 || sx.FPS > 100 {
		t.Fatalf("GoogLeNet FPS = %.2f outside plausible band", sx.FPS)
	}
}
