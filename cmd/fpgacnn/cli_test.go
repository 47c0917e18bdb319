package main

// End-to-end contracts of the CLI, driven through the commands table the way
// `fpgacnn <name> <args>` runs them: the chaos ladder and output verification
// succeed, Chrome traces and guided-DSE result files are byte-identical on
// a rerun and across worker counts, and the timed run publishes its runtime
// metrics.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fpgacnn runs one command through dispatch with stdout captured, and fails
// the test on any error. Commands print to os.Stdout, so tests that call it
// must not run in parallel.
func fpgacnn(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = dispatch(args[0], args[1:])
	os.Stdout = stdout
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatalf("fpgacnn %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// verify passes every static channel check and every LeNet bitstream's
// output check; chaos serves LeNet-5 and MobileNetV1 requests through the
// ladder under injected faults at three seeds, and fails unless nothing is
// dropped and every answer equals the CPU reference.
func TestChaosAndVerifyThroughTable(t *testing.T) {
	if out := fpgacnn(t, "verify"); !strings.Contains(out, "all bitstreams match the reference output") {
		t.Errorf("verify printed no verdict:\n%s", out)
	}
	for seed := 1; seed <= 3; seed++ {
		out := fpgacnn(t, "chaos", "-fault-seed", strconv.Itoa(seed), "-images", "3")
		if n := strings.Count(out, "all 3 answer(s) match the CPU reference"); n != 2 {
			t.Errorf("seed %d: %d of 2 networks report matching answers:\n%s", seed, n, out)
		}
	}
}

// `run -trace` writes the same Chrome trace twice for each network (the
// exporter's determinism contract on the modeled clock), in the shape
// Perfetto loads: a non-empty event list with complete ("X") spans and
// millisecond display units.
func TestRunTraceByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ net, images string }{{"lenet5", "4"}, {"mobilenetv1", "2"}} {
		var traces [2][]byte
		for i := range traces {
			path := filepath.Join(dir, c.net+strconv.Itoa(i)+".json")
			fpgacnn(t, "run", "-net", c.net, "-images", c.images, "-trace", path)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = b
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Fatalf("%s: repeated -trace runs differ", c.net)
		}
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
			DisplayTimeUnit string `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(traces[0], &doc); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", c.net, err)
		}
		spans := 0
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				spans++
			}
		}
		if len(doc.TraceEvents) == 0 || spans == 0 || doc.DisplayTimeUnit != "ms" {
			t.Errorf("%s: %d events, %d complete spans, displayTimeUnit %q; want events, spans and \"ms\"",
				c.net, len(doc.TraceEvents), spans, doc.DisplayTimeUnit)
		}
	}
	out := fpgacnn(t, "run", "-net", "lenet5", "-images", "4", "-metrics")
	for _, m := range []string{"clrt.kernel_occupancy", "clrt.channel_stall_pct", "clrt.transfer_mbps"} {
		if !strings.Contains(out, m) {
			t.Errorf("run -metrics dump lacks %s", m)
		}
	}
}

// A guided search's -json result is byte-identical at 1 and 8 workers for a
// fixed seed, and a state saved with -transfer-out on one board warm-starts
// a search on another through -transfer-in.
func TestDSEJSONWorkerCountInvariant(t *testing.T) {
	dir := t.TempDir()
	guided := func(board, budget string, extra ...string) {
		fpgacnn(t, append([]string{"dse", "-dse-mode=guided", "-net", "mobilenetv1",
			"-board", board, "-dse-max", budget}, extra...)...)
	}
	for _, seed := range []string{"1", "2"} {
		var results [2][]byte
		for i, workers := range []string{"1", "8"} {
			path := filepath.Join(dir, "seed"+seed+"_w"+workers+".json")
			guided("S10SX", "32", "-dse-seed", seed, "-dse-workers", workers, "-json", path)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = b
		}
		if len(results[0]) == 0 || !bytes.Equal(results[0], results[1]) {
			t.Fatalf("seed %s: -json result differs between 1 and 8 workers", seed)
		}
	}
	state := filepath.Join(dir, "a10_state.json")
	guided("A10", "32", "-transfer-out", state)
	guided("S10SX", "16", "-transfer-in", state)
}
