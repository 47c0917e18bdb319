package host

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/nn"
	"repro/internal/trace"
)

func TestDumpActivationsTopologyError(t *testing.T) {
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeBase, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	// Doctor a self-referencing stage: its input names a producer that does
	// not strictly precede it, so the bind loop would read an unwritten
	// buffer. The dump must refuse with a typed error, not return zeros.
	p.stages[2].layer.In = 2
	_, err = p.DumpActivations(nn.Digit(1))
	var topo *TopologyError
	if !errors.As(err, &topo) {
		t.Fatalf("want *TopologyError, got %v", err)
	}
	if topo.Index != 2 || topo.In != 2 || topo.Stage != p.stages[2].layer.Name {
		t.Fatalf("error fields = %+v", topo)
	}
	if !strings.Contains(err.Error(), "topological") {
		t.Fatalf("error message should name the invariant: %v", err)
	}
}

func TestPipelinedRunTracedCollects(t *testing.T) {
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.NewCollector()
	r, err := p.RunTraced(3, true, false, tc)
	if err != nil {
		t.Fatal(err)
	}
	var kernelSpans, imageSpans, phaseSpans int
	for _, s := range tc.Spans() {
		switch {
		case s.Proc == "device" && s.Cat == "kernel":
			kernelSpans++
		case s.Proc == "host" && s.Track == "images":
			imageSpans++
		case s.Proc == "host" && s.Track == "phases":
			phaseSpans++
		}
	}
	if kernelSpans == 0 || imageSpans != 3 || phaseSpans != 2 {
		t.Fatalf("span mix kernels=%d images=%d phases=%d, want >0/3/2", kernelSpans, imageSpans, phaseSpans)
	}
	reg := tc.Metrics()
	if got := reg.Counter("host.images").Value(); got != 3 {
		t.Fatalf("host.images = %d, want 3", got)
	}
	if occ := reg.Gauge("clrt.kernel_occupancy").Value(); occ <= 0 || occ > 1 {
		t.Fatalf("kernel occupancy = %v, want in (0,1]", occ)
	}
	if fps := reg.Gauge("host.fps").Value(); fps != r.FPS {
		t.Fatalf("host.fps gauge = %v, run result FPS = %v", fps, r.FPS)
	}

	// Rebuilding and rerunning must export a byte-identical Chrome trace —
	// the determinism bar for the whole observability layer.
	p2, err := BuildPipelined(lenetLayers(t), PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	tc2 := trace.NewCollector()
	if _, err := p2.RunTraced(3, true, false, tc2); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := tc.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tc2.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated traced runs export different Chrome traces")
	}
}

func TestFoldedRunTracedCollects(t *testing.T) {
	layers := lenetLayers(t)
	f, err := BuildFolded(layers, lenetFoldedConfig(), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.NewCollector()
	if _, err := f.RunTraced(2, false, tc); err != nil {
		t.Fatal(err)
	}
	if got := tc.Metrics().Counter("host.images").Value(); got != 2 {
		t.Fatalf("host.images = %d, want 2", got)
	}
	var imageSpans int
	for _, s := range tc.Spans() {
		if s.Proc == "host" && s.Track == "images" {
			imageSpans++
		}
	}
	if imageSpans != 2 {
		t.Fatalf("image spans = %d, want 2", imageSpans)
	}
}
