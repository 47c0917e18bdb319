package host

// Sessions: the one functional description of a deployment. A session is a
// warm sim.Machine with every tensor of the deployment bound — kernels
// compile once, output/scratch slices are allocated once per session and
// channel FIFO storage persists — plus the shape's plan walker. Infer,
// RunBatch workers and DumpActivations all check sessions out of the same
// per-deployment cache, so every functional path runs the same code on the
// same warm state. A warm image is bit-identical to one on a cold machine
// because every piece of machine state a kernel can observe — scratches,
// outputs, channels, Alloc-ed temporaries — is either reset to the
// cold-start contents (all zeros, empty FIFOs) before each image or, like a
// folded plan's activations, written whole before any kernel reads it; the
// cold reference is exactly that: a fresh session per image.
//
// A pipelined session off the interpreter tier runs rewritten kernels: when
// it is built, sim.ElideChannels turns every balanced channel into a
// session-owned buffer, so conv and dense nests reach the GEMM and vector
// lowerings instead of stepping through FIFOs one element at a time. The
// interpreter tier keeps the channels and is the oracle the rewrite is tested
// against; the deployment's own kernels (codegen, aoc, clrt, verify) never
// change.
//
// Ownership: session buffers never escape. The network output is copied into
// a freshly allocated tensor the caller owns and may retain; a tap sees
// session-owned slices that are only valid during the call.

import (
	"sync"

	"repro/internal/aoc"
	"repro/internal/clrt"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// shape is what the shared drivers (infer, runBatch, runTimed) need from
// a deployment shape: one functional description (newSession) and one modeled
// description (program). Pipelined and Folded are the two implementations.
type shape interface {
	state() *engine
	design() *aoc.Design
	// newSession binds the deployment to a fresh machine with freshly
	// allocated buffers; a fresh session is also the cold reference.
	newSession() (*session, error)
	// program loads the deployment onto a freshly programmed device; see
	// program.
	program(ctx *clrt.Context, concurrent bool, try tryFn) (*program, error)
}

// engine is the execution state both deployment shapes embed: the cache of
// warm sessions and the execution-tier counters every session's machine
// feeds.
type engine struct {
	sessions sessionCache
	simStats sim.ExecStats
	// tier is the engine every new machine runs on: the zero value, the
	// vector tier, everywhere but the tests that build interpreter oracles.
	tier sim.Tier
}

func (e *engine) state() *engine { return e }

// SimStats returns the cumulative execution-tier counters (compile cache,
// lowered vs fallback loops, guard bailouts) of every functional run on
// this deployment.
func (e *engine) SimStats() sim.StatsSnapshot { return e.simStats.Snapshot() }

// newMachine is the one place the host creates a simulator machine.
func (e *engine) newMachine() *sim.Machine {
	m := sim.NewMachine()
	m.SetTier(e.tier)
	m.SetStats(&e.simStats)
	return m
}

// tapFn receives layer i's output feature map after an image has run. The
// slice belongs to the session: copy what must outlive the call.
type tapFn func(layer int, act []float32)

// session is one single-threaded functional executor of a deployment.
type session struct {
	m        *sim.Machine
	outShape []int
	// image resets the machine to its cold-start state, binds the input,
	// walks the shape's plan, taps every layer when tap is non-nil, and
	// returns the session-owned network output.
	image func(input []float32, tap tapFn) ([]float32, error)
}

// run executes one image and returns a caller-owned output tensor.
func (s *session) run(input *tensor.Tensor, tap tapFn) (*tensor.Tensor, error) {
	raw, err := s.image(input.Data, tap)
	if err != nil {
		return nil, err
	}
	out := tensor.New(s.outShape...)
	copy(out.Data, raw)
	return out, nil
}

// sessionCache keeps a deployment's warm sessions. A caller checks one out
// for as long as it runs images and returns it afterwards; concurrent callers
// simply build extra sessions instead of sharing one.
type sessionCache struct {
	mu   sync.Mutex
	free []*session
}

// checkout hands out a cached session, or builds one when none is free.
func (c *sessionCache) checkout(sh shape) (*session, error) {
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()
	return sh.newSession()
}

// checkin returns a session to the cache. A session whose image failed is
// safe to reuse: the next image resets or rewrites everything the failed one
// touched before reading it.
func (c *sessionCache) checkin(s *session) {
	c.mu.Lock()
	c.free = append(c.free, s)
	c.mu.Unlock()
}

// infer runs one image on a checked-out session — the body of Infer and
// DumpActivations on both shapes.
func infer(sh shape, input *tensor.Tensor, tap tapFn) (*tensor.Tensor, error) {
	cache := &sh.state().sessions
	s, err := cache.checkout(sh)
	if err != nil {
		return nil, err
	}
	defer cache.checkin(s)
	return s.run(input, tap)
}
