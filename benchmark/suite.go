package main

// The whole-suite driver: every workload in its own re-exec'd child process
// (so RSS, GC state, arena caches and compiled-kernel caches never leak from
// one workload into the next), the machine fingerprint, the printed report
// and the -aa self-check.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/fpga"
	"repro/internal/serve"
)

// buildDir holds everything the benchmark writes: the binary, the Go build
// cache (run.sh), reports and traces. It is in .gitignore.
const buildDir = ".bench_build"

// fingerprint says what machine and commit a report came from.
type fingerprint struct {
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	CPUModel       string  `json:"cpu_model"`
	Kernel         string  `json:"kernel"`
	Commit         string  `json:"git_commit"`
	LoadAvg1       float64 `json:"loadavg_1m_at_start"`
	GemmPeakGFLOPS float64 `json:"cpuref_gemm_gflops_peak,omitempty"`
	// Undersized: load is generated with fixed parallelism 2, so on fewer
	// than 2 CPUs the figures are not comparable.
	Undersized bool `json:"nproc_below_2"`
}

func readFirst(path string) string {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(buf))
}

func takeFingerprint() *fingerprint {
	fp := &fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Kernel: readFirst("/proc/sys/kernel/osrelease"), Commit: "unknown"}
	fp.Undersized = fp.NProc < 2
	for _, line := range strings.Split(readFirst("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			fp.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	fmt.Sscan(readFirst("/proc/loadavg"), &fp.LoadAvg1)
	head := readFirst(".git/HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = readFirst(filepath.Join(".git", ref))
	}
	if len(head) >= 7 && head != "unknown" {
		fp.Commit = head
	}
	return fp
}

func writeReport(path string, r *result) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// coldCompileMS times cold serve.BuildDeployment calls (lower + build,
// nothing memoized) of the workload's network: enough of them to fill about a
// second, at least 5. It runs after the measured window and after peak RSS is
// read, so its garbage shows in neither. The collection first makes every run
// start from the same heap state; lowering allocates the weights, so its time
// follows the collector's.
func coldCompileMS(net string) (reps, error) {
	runtime.GC()
	var out reps
	for len(out) < 5 || len(out) < 200 && sum(out) < 1000 {
		t0 := time.Now()
		if _, _, err := serve.BuildDeployment(net, fpga.S10SX); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds()*1e3)
	}
	return out, nil
}

// runPass runs one workload's pass in a child and reads back its report.
func runPass(o options, workload string, traced bool, tag string) (*result, error) {
	report := filepath.Join(buildDir, fmt.Sprintf("report-%s-%s.json", workload, tag))
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-report", report}
	if traced {
		args = append(args, "-trace", "1", "-trace-out", filepath.Join(buildDir, "trace-"+workload+".json"))
	}
	if _, err := runChild(args...); err != nil {
		return nil, fmt.Errorf("%s (%s): %w", workload, tag, err)
	}
	buf, err := os.ReadFile(report)
	if err != nil {
		return nil, err
	}
	var r result
	return &r, json.Unmarshal(buf, &r)
}

// printMetrics prints the metrics the pass measured, by name, with unit,
// clock and the spread over repetitions.
func printMetrics(defs []metricDef, r *result) {
	for _, def := range defs {
		m, ok := r.Metrics[def.Name]
		if !ok {
			continue // a layer this workload does not exercise
		}
		spread := ""
		if m.N > 1 {
			spread = fmt.Sprintf("  [min %.6g max %.6g over %d]", m.Min, m.Max, m.N)
		}
		fmt.Printf("  %-40s %14.6g %-10s %-8s%s\n", def.Name, m.Value, def.Unit, def.Clock, spread)
	}
}

// runSuite runs every workload: the end-to-end pass (twice under -aa) and,
// without -aa, the traced pass.
func runSuite(o options, aa bool) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	fp := takeFingerprint()
	fmt.Printf("machine: %d CPU (GOMAXPROCS %d) %s, kernel %s, %s, commit %s, load %.2f\n",
		fp.NProc, fp.GOMAXPROCS, fp.CPUModel, fp.Kernel, fp.GoVersion, fp.Commit, fp.LoadAvg1)
	if fp.Undersized {
		fmt.Println("WARNING: fewer than 2 CPUs; load is generated with fixed parallelism 2, figures are not comparable")
	}
	failed := false
	for _, w := range workloads {
		a, err := runPass(o, w.Name, false, "e2e")
		if err != nil {
			return err
		}
		fmt.Printf("\n== %s (seed %d): %d attempted, %d failed, fail_share %g ==\n", w.Name, o.seed,
			a.Attempted, a.Failed, float64(a.Failed)/float64(max(a.Attempted, 1)))
		failed = failed || !a.Correct
		if aa {
			b, err := runPass(o, w.Name, false, "e2e-b")
			if err != nil {
				return err
			}
			failed = failed || !b.Correct
			for _, def := range endToEnd {
				x, y := a.Metrics[def.Name].Value, b.Metrics[def.Name].Value
				diff := math.Abs(y-x) / math.Abs(x)
				verdict := "ok"
				if diff > def.Bound {
					verdict, failed = "EXCEEDS BOUND", true
				}
				fmt.Printf("  %-20s %12.6g %12.6g %-6s %-6s diff %6.2f%%  bound %4.0f%%  %s\n",
					def.Name, x, y, def.Unit, def.Clock, diff*100, def.Bound*100, verdict)
			}
			continue
		}
		printMetrics(endToEnd, a)
		for _, n := range a.Notes {
			fmt.Println("  note:", n)
		}
		t, err := runPass(o, w.Name, true, "traced")
		if err != nil {
			return err
		}
		failed = failed || !t.Correct
		fmt.Printf("  -- per layer (traced pass, spans in %s) --\n", filepath.Join(buildDir, "trace-"+w.Name+".json"))
		printMetrics(perLayer, t)
	}
	if failed {
		return fmt.Errorf("a workload answered wrongly or an A/A difference exceeded its bound")
	}
	return nil
}
