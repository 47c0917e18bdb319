package host

import (
	"fmt"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// The thesis's host program includes "output verification and debugging
// capabilities (per-layer activation dump)" (§5.2). DumpActivations
// reproduces that: one tensor per layer, pulled from the device buffers
// after a functional run.

// TopologyError reports a stage whose input references a stage that does not
// strictly precede it. A session binds each stage's input to its producer's
// output buffer in stage order; a forward (or self) reference would silently
// bind zeros — the consumer would run before its producer ever wrote — so it
// is rejected up front as a typed error the caller can match with errors.As.
type TopologyError struct {
	// Stage is the consumer layer's name; Index its position in the plan.
	Stage string
	Index int
	// In is the out-of-order producer index the stage references.
	In int
}

func (e *TopologyError) Error() string {
	return fmt.Sprintf("host: stage %d (%s) reads from stage %d: stages are not in topological order", e.Index, e.Stage, e.In)
}

// DumpActivations runs one inference and returns every layer's output
// feature map, in layer order. It requires a buffered bitstream (Base or
// Unrolling): channelized bitstreams stream activations kernel-to-kernel and
// never materialize them in global memory, which is exactly why the thesis's
// debug path uses the buffered configuration.
func (p *Pipelined) DumpActivations(input *tensor.Tensor) ([]*tensor.Tensor, error) {
	if p.Variant >= PipeChannels {
		return nil, fmt.Errorf("host: %s streams activations through channels; use a buffered bitstream (Base/Unrolling) for per-layer dumps", p.Variant)
	}
	return dumpActivations(p, p.Layers, input)
}

// DumpActivations returns every layer's output feature map from a folded
// run (folded activations always live in global memory, so every bitstream
// supports the dump).
func (f *Folded) DumpActivations(input *tensor.Tensor) ([]*tensor.Tensor, error) {
	return dumpActivations(f, f.Layers, input)
}

// dumpActivations is an ordinary session run with a tap that copies each
// layer's feature map out of the session.
func dumpActivations(sh shape, layers []*relay.Layer, input *tensor.Tensor) ([]*tensor.Tensor, error) {
	acts := make([]*tensor.Tensor, len(layers))
	_, err := infer(sh, input, func(i int, act []float32) {
		acts[i] = tensor.New(layers[i].OutShape...)
		copy(acts[i].Data, act)
	})
	if err != nil {
		return nil, err
	}
	return acts, nil
}
