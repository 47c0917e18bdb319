package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clrt"
	"repro/internal/fault"
)

// goldenCollector builds a small fixed trace exercising both processes, both
// lanes, instants and args — the shape a real run produces, shrunk to stay
// readable in the golden file.
func goldenCollector() *Collector {
	c := NewCollector()
	c.AddEvents([]*clrt.Event{
		{Kind: "write", Name: "input", QueuedUS: 0, StartUS: 0, EndUS: 10, Queue: 0, Bytes: 4096},
		{Kind: "kernel", Name: "conv1", QueuedUS: 0, StartUS: 10, EndUS: 60, Queue: 1, StallUS: 5, Stalled: true},
		{Kind: "read", Name: "output", QueuedUS: 60, StartUS: 60, EndUS: 70, Queue: 0, Bytes: 2048, Corrupt: true},
	}, 100)
	c.Add(Span{Proc: "host", Track: "images", Name: "image 0", Cat: "image",
		StartUS: 0, DurUS: 70, Args: map[string]string{"events": "3"}})
	c.AddFaults([]fault.Record{
		{Seq: 1, Kind: fault.TransferCorrupt, Code: fault.Success, Op: "read output", AtUS: 70},
	})
	return c
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCollector().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exporter output diverged from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if parsed.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", parsed.Unit)
	}
	var xs, is, ms int
	for _, e := range parsed.TraceEvents {
		switch e["ph"] {
		case "X":
			xs++
		case "i":
			is++
			if e["s"] != "t" {
				t.Fatalf("instant event missing thread scope: %v", e)
			}
		case "M":
			ms++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	// 4 complete spans (3 device events + 1 host image), 1 fault instant,
	// 2 process_name + 4 tracks x (thread_name + thread_sort_index).
	if xs != 4 || is != 1 || ms != 2+2*4 {
		t.Fatalf("event mix X=%d i=%d M=%d, want 4/1/10", xs, is, ms)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	c := goldenCollector()
	if err := c.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same collector differ")
	}
	// A freshly rebuilt collector must serialize identically too — the
	// acceptance bar for trace determinism across repeated runs.
	var c2 bytes.Buffer
	if err := goldenCollector().WriteChromeTrace(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c2.Bytes()) {
		t.Fatal("rebuilt collector serializes differently")
	}
}

func TestAddEventsMetrics(t *testing.T) {
	c := NewCollector()
	c.AddEvents([]*clrt.Event{
		{Kind: "write", Name: "in", StartUS: 0, EndUS: 10, Bytes: 4000},
		{Kind: "kernel", Name: "k1", StartUS: 10, EndUS: 60, StallUS: 5, Queue: 1},
		{Kind: "read", Name: "out", StartUS: 60, EndUS: 70, Bytes: 2000},
	}, 100)
	reg := c.Metrics()
	if got := reg.Gauge("clrt.kernel_occupancy").Value(); got != 0.5 {
		t.Fatalf("occupancy = %v, want 0.5 (50 busy us / 100 elapsed)", got)
	}
	if got := reg.Gauge("clrt.channel_stall_pct").Value(); got != 10 {
		t.Fatalf("stall pct = %v, want 10 (5 stall us / 50 busy us)", got)
	}
	if got := reg.Gauge("clrt.transfer_mbps").Value(); got != 300 {
		t.Fatalf("transfer mbps = %v, want 300 (6000 B / 20 us)", got)
	}
	for kind, want := range map[string]int64{"kernel": 1, "write": 1, "read": 1} {
		if got := reg.Counter("clrt.events." + kind).Value(); got != want {
			t.Fatalf("events.%s = %d, want %d", kind, got, want)
		}
	}
	if got := len(c.Spans()); got != 3 {
		t.Fatalf("spans = %d, want 3", got)
	}
}

func TestAddFaults(t *testing.T) {
	c := NewCollector()
	c.AddFaults([]fault.Record{
		{Seq: 1, Kind: fault.TransferFail, Code: fault.OutOfResources, Op: "write w", AtUS: 3},
		{Seq: 2, Kind: fault.TransferFail, Code: fault.OutOfResources, Op: "write w", AtUS: 7},
		{Seq: 3, Kind: fault.KernelStall, Code: fault.ExecStatusErrorForEvents, Op: "kernel k", AtUS: 9},
	})
	if got := c.Metrics().Counter("fault.transfer-fail").Value(); got != 2 {
		t.Fatalf("transfer-fail count = %d, want 2", got)
	}
	if got := c.Metrics().Counter("fault.kernel-stall").Value(); got != 1 {
		t.Fatalf("kernel-stall count = %d, want 1", got)
	}
	spans := c.Spans()
	if len(spans) != 3 || !spans[0].Instant || spans[0].StartUS != 3 {
		t.Fatalf("fault instants malformed: %+v", spans)
	}
	if spans[2].Args["code"] != "CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST" {
		t.Fatalf("fault args missing CL code: %v", spans[2].Args)
	}
}

func TestNilCollectorInert(t *testing.T) {
	var c *Collector
	c.Add(Span{Name: "x"})
	c.Instant("host", "t", "n", "c", 0, nil)
	c.AddEvents([]*clrt.Event{{Kind: "kernel", Name: "k", EndUS: 1}}, 1)
	c.AddFaults([]fault.Record{{}})
	c.Metrics().Counter("x").Inc()
	c.Metrics().Gauge("x").Set(1)
	c.Metrics().Histogram("x").Observe(1)
	if c.Spans() != nil {
		t.Fatal("nil collector should report nothing")
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil collector export: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil collector export is not valid JSON: %v", err)
	}
}
