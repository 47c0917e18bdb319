package cpuref

import (
	"fmt"
	"math"
	"sort"
)

// The thesis compares its accelerators against Keras/TensorFlow on a 2×28-core
// Xeon 8280, TVM's LLVM CPU backend swept from 1 to 56 threads, and
// TensorFlow+cuDNN on a GTX 1060 (§6.2, Table 6.3). None of that hardware
// exists in this environment, so the baselines are analytic models calibrated
// to the thesis's measured anchor points (DESIGN.md, substitution table).
//
// The TVM-CPU model is a three-term time decomposition
//
//	t(n) = tPar / n^alpha  +  tSer  +  tax·n
//
// (parallelizable compute with sublinear scaling, serial remainder, and a
// per-thread coordination tax). The per-network parameters reproduce the
// thesis's curves: LeNet peaks at 1 thread and degrades (its channel counts
// are too small to parallelize, §6.4.2); MobileNet scales near-linearly to 16
// threads; the ResNets land between.

// cpuProfile holds the calibrated baseline parameters for one network.
type cpuProfile struct {
	Net   string
	FLOPs float64 // multiply+add operations per forward pass

	// TVM LLVM-CPU model parameters (microseconds).
	TParUS, TSerUS, TaxUS, Alpha float64

	// Anchor measurements from the thesis (frames per second).
	TFCPUFPS    float64 // Keras/TensorFlow, default thread pool
	TFCPUThread int     // threads TF actually used (§6.2 fn. 2)
	GPUFPS      float64 // TensorFlow + cuDNN on the GTX 1060
}

var profiles = map[string]*cpuProfile{
	"lenet5": {
		Net: "lenet5", FLOPs: 389e3,
		TParUS: 100, TSerUS: 326, TaxUS: 18, Alpha: 1.0,
		TFCPUFPS: 1075, TFCPUThread: 4, GPUFPS: 1604,
	},
	"mobilenetv1": {
		Net: "mobilenetv1", FLOPs: 1.11e9,
		TParUS: 63600, TSerUS: 500, TaxUS: 100, Alpha: 0.68,
		TFCPUFPS: 21.6, TFCPUThread: 112, GPUFPS: 43.7,
	},
	"resnet18": {
		Net: "resnet18", FLOPs: 3.66e9,
		TParUS: 171000, TSerUS: 1000, TaxUS: 100, Alpha: 0.664,
		TFCPUFPS: 16.3, TFCPUThread: 112, GPUFPS: 46.5,
	},
	"resnet34": {
		Net: "resnet34", FLOPs: 7.36e9,
		TParUS: 832000, TSerUS: 1000, TaxUS: 100, Alpha: 0.628,
		TFCPUFPS: 10.7, TFCPUThread: 112, GPUFPS: 31.7,
	},
}

// profile returns the calibrated baseline profile for a network.
func profile(net string) (*cpuProfile, error) {
	p, ok := profiles[net]
	if !ok {
		return nil, fmt.Errorf("cpuref: no baseline profile for %q (have %v)", net, Nets())
	}
	return p, nil
}

// Nets lists networks with baseline profiles, sorted.
func Nets() []string {
	out := make([]string, 0, len(profiles))
	for k := range profiles {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TVMCPUFPS models TVM's LLVM backend at n threads.
func TVMCPUFPS(net string, threads int) (float64, error) {
	p, err := profile(net)
	if err != nil {
		return 0, err
	}
	if threads < 1 {
		return 0, fmt.Errorf("cpuref: thread count must be >= 1")
	}
	n := float64(threads)
	us := p.TParUS/math.Pow(n, p.Alpha) + p.TSerUS + p.TaxUS*n
	return 1e6 / us, nil
}

// TFCPUFPS returns the Keras/TensorFlow CPU anchor and the thread count the
// thesis observed TF using.
func TFCPUFPS(net string) (fps float64, threads int, err error) {
	p, err := profile(net)
	if err != nil {
		return 0, 0, err
	}
	return p.TFCPUFPS, p.TFCPUThread, nil
}

// GPUFPS returns the TensorFlow+cuDNN (GTX 1060) anchor.
func GPUFPS(net string) (float64, error) {
	p, err := profile(net)
	if err != nil {
		return 0, err
	}
	return p.GPUFPS, nil
}

// BestTVMThreads sweeps 1..56 threads and returns the fastest configuration,
// as plotted in Figs. 6.4–6.7.
func BestTVMThreads(net string) (threads int, fps float64, err error) {
	for n := 1; n <= 56; n++ {
		f, e := TVMCPUFPS(net, n)
		if e != nil {
			return 0, 0, e
		}
		if f > fps {
			fps, threads = f, n
		}
	}
	return threads, fps, nil
}
