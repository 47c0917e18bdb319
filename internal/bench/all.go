package bench

import (
	"fmt"
	"strings"

	"repro/internal/dse"
	"repro/internal/fpga"
)

// gatherRelatedWork runs the measurements the Tables 6.17–6.19 comparison
// needs and fills the inputs struct.
func gatherRelatedWork() (relatedWorkInputs, error) {
	var in relatedWorkInputs

	// ResNet-34 per-op profile on the S10SX.
	prof, _, err := opsProfile("resnet34")
	if err != nil {
		return in, err
	}
	for _, p := range prof["S10SX"] {
		if p.Class == "3x3 conv" {
			in.ResNet34Conv3x3GFLOPS = p.GFLOPS
		}
	}

	// LeNet on the S10SX.
	lenet, _, err := lenetInference()
	if err != nil {
		return in, err
	}
	if fps := lenet.FPS["S10SX"]; fps > 0 {
		in.LeNetLatencyMS = 1e3 / fps
		in.LeNetGFLOPS = lenet.GFLOPS["S10SX"]
	}
	if err := fillBaselines(lenet); err != nil {
		return in, err
	}
	if lenet.FPS["A10"] > 0 {
		in.LeNetVsCPU = lenet.FPS["A10"] / lenet.TFCPUFPS
	}

	// ResNet-34 and MobileNet deployments.
	r34, _, err := foldedInference("resnet34")
	if err != nil {
		return in, err
	}
	in.ResNet34GFLOPS = r34.GFLOPS["S10SX"]

	mob, _, err := foldedInference("mobilenetv1")
	if err != nil {
		return in, err
	}
	in.MobileNetA10GFLOPS = mob.GFLOPS["A10"]
	if err := fillBaselines(mob); err != nil {
		return in, err
	}
	if mob.FPS["A10"] > 0 {
		in.MobileNetVsCPU = mob.FPS["A10"] / mob.TFCPUFPS
	}
	return in, nil
}

// Experiments lists every runnable experiment by CLI name.
var Experiments = []string{
	"platforms", "models",
	"lenet-ladder", "lenet-profile", "lenet-inference",
	"tiling-sweep", "routing-failures", "routing-map",
	"mobilenet-kernels", "mobilenet-ops", "mobilenet-inference",
	"resnet-kernels", "resnet-ops", "resnet-inference",
	"related-work", "pubcount", "transfer-speeds", "dse", "quantization", "alexnet", "googlenet", "ablations",
}

// Run executes one experiment by name and returns its report.
func Run(name string) (string, error) {
	switch name {
	case "platforms":
		return platforms(), nil
	case "models":
		return models()
	case "lenet-ladder":
		_, rep, err := lenetLadder()
		return rep, err
	case "lenet-profile":
		_, rep, err := lenetProfile()
		return rep, err
	case "lenet-inference":
		_, rep, err := lenetInference()
		return rep, err
	case "tiling-sweep":
		_, rep, err := TilingSweep(fpga.A10)
		return rep, err
	case "routing-failures":
		_, rep, err := RoutingFailures()
		return rep, err
	case "routing-map":
		return RoutingMap()
	case "mobilenet-kernels":
		return kernelTable("mobilenetv1")
	case "mobilenet-ops":
		_, rep, err := opsProfile("mobilenetv1")
		return rep, err
	case "mobilenet-inference":
		_, rep, err := foldedInference("mobilenetv1")
		return rep, err
	case "resnet-kernels":
		return kernelTable("resnet18")
	case "resnet-ops":
		r18, rep18, err := opsProfile("resnet18")
		if err != nil {
			return "", err
		}
		_ = r18
		_, rep34, err := opsProfile("resnet34")
		if err != nil {
			return "", err
		}
		return rep18 + "\n" + rep34, nil
	case "resnet-inference":
		_, rep18, err := foldedInference("resnet18")
		if err != nil {
			return "", err
		}
		_, rep34, err := foldedInference("resnet34")
		if err != nil {
			return "", err
		}
		return rep18 + "\n" + rep34, nil
	case "related-work":
		in, err := gatherRelatedWork()
		if err != nil {
			return "", err
		}
		return relatedWork(in), nil
	case "dse":
		_, rep, err := DSEExperiment(dse.Options{})
		return rep, err
	case "quantization":
		_, rep, err := quantizationProjection()
		return rep, err
	case "alexnet":
		_, rep, err := alexNetComparison()
		return rep, err
	case "googlenet":
		_, rep, err := GoogLeNetFeasibility()
		return rep, err
	case "ablations":
		_, rep, err := ablations()
		return rep, err
	case "pubcount":
		return pubCount(), nil
	case "transfer-speeds":
		_, rep := transferSpeeds()
		return rep, nil
	}
	return "", fmt.Errorf("bench: unknown experiment %q (have: %s)", name, strings.Join(Experiments, ", "))
}

// All runs every experiment and concatenates the reports in thesis order.
func All() (string, error) {
	var b strings.Builder
	for _, name := range Experiments {
		rep, err := Run(name)
		if err != nil {
			return "", fmt.Errorf("experiment %s: %w", name, err)
		}
		b.WriteString(rep)
		b.WriteString("\n" + strings.Repeat("=", 78) + "\n\n")
	}
	return b.String(), nil
}
