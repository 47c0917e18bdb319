// Package fault is a deterministic, seed-driven fault injector for the
// runtime simulator. Channel-coupled OpenCL pipelines are the fragile part
// of the stack (§4.6): on real boards, PCIe transfers fail or corrupt data,
// kernels stall past any reasonable deadline, and enqueue calls return
// transient CL_OUT_OF_* statuses.
// The injector reproduces those failures on demand so the batch engine's
// retry policy (internal/host) and the server's per-request degradation
// ladder (internal/serve) can be exercised and tested without hardware.
//
// Determinism contract: an Injector seeded with (seed, rate) produces the
// same fault sequence for the same sequence of probe calls. Probes draw from
// a splitmix64 stream owned by the injector, never from math/rand or the
// wall clock, so chaos tests are exactly reproducible across runs, platforms
// and Go versions. The injector is safe for concurrent use.
package fault

import (
	"errors"
	"fmt"
	"sync"
)

// Code mirrors the OpenCL status codes the host program sees on real
// hardware (cl.h); the injector tags every synthetic fault with the status
// the corresponding real failure would carry.
type Code int

const (
	Success                  Code = 0
	DeviceNotAvailable       Code = -2
	MemObjectAllocationFail  Code = -4
	OutOfResources           Code = -5
	OutOfHostMemory          Code = -6
	ExecStatusErrorForEvents Code = -14
)

func (c Code) String() string {
	switch c {
	case Success:
		return "CL_SUCCESS"
	case DeviceNotAvailable:
		return "CL_DEVICE_NOT_AVAILABLE"
	case MemObjectAllocationFail:
		return "CL_MEM_OBJECT_ALLOCATION_FAILURE"
	case OutOfResources:
		return "CL_OUT_OF_RESOURCES"
	case OutOfHostMemory:
		return "CL_OUT_OF_HOST_MEMORY"
	case ExecStatusErrorForEvents:
		return "CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST"
	}
	return fmt.Sprintf("CL_ERROR(%d)", int(c))
}

// Kind enumerates the failure modes the injector models.
type Kind int

const (
	// TransferFail: a PCIe host<->device transfer errors out entirely.
	TransferFail Kind = iota
	// TransferCorrupt: the transfer completes but the payload is corrupted in
	// flight; the host detects it by checksum and must re-transfer.
	TransferCorrupt
	// KernelStall: a kernel runs far past its modeled time (a stuck channel
	// consumer on hardware). No CL error reports it: it only lengthens the
	// modeled time. A board that wedges outright is the fleet's heartbeat
	// watchdog's to catch (internal/fleet).
	KernelStall
	// EnqueueFail: the enqueue call itself fails transiently.
	EnqueueFail
)

func (k Kind) String() string {
	switch k {
	case TransferFail:
		return "transfer-fail"
	case TransferCorrupt:
		return "transfer-corrupt"
	case KernelStall:
		return "kernel-stall"
	case EnqueueFail:
		return "enqueue-fail"
	}
	if name, ok := boardKindName(k); ok {
		return name
	}
	return "?"
}

// Error is one injected fault surfaced to the host as an OpenCL-style error.
type Error struct {
	Kind Kind
	Code Code
	// Op names the failed operation ("write input", "kernel conv1", ...).
	Op string
	// Transient faults are worth retrying; persistent ones require
	// degradation (reprogramming with a simpler design or falling back to
	// the CPU reference).
	Transient bool
}

func (e *Error) Error() string {
	t := "persistent"
	if e.Transient {
		t = "transient"
	}
	return fmt.Sprintf("fault: %s on %s: %s (%s)", e.Kind, e.Op, e.Code, t)
}

// IsTransient reports whether err carries a transient injected fault.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Transient
}

// Record is one ledger entry: every injected fault is logged so the run
// report can name each fault alongside the recovery taken.
type Record struct {
	Seq  int
	Kind Kind
	Code Code
	Op   string
	// AtUS is the simulated host time of the probe.
	AtUS float64
}

func (r Record) String() string {
	return fmt.Sprintf("#%d t=%.0fus %s %s on %s", r.Seq, r.AtUS, r.Kind, r.Code, r.Op)
}

// Injector decides, probe by probe, whether an operation faults. The zero
// value and the nil injector are inert (no faults, no overhead beyond a nil
// check), so the runtime can probe unconditionally.
type Injector struct {
	mu      sync.Mutex
	state   uint64
	rate    float64
	records []Record
	seq     int
}

// stallFactor inflates a stalled kernel's modeled duration; large enough
// that the stall dominates the image's modeled time.
const stallFactor = 64

// NewInjector returns an injector that fires each probe with probability
// rate, deterministically derived from seed. rate <= 0 yields an inert
// injector; rate >= 1 faults every probe.
func NewInjector(seed int64, rate float64) *Injector {
	return &Injector{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567, rate: rate}
}

// enabled reports whether the injector can fire at all.
func (in *Injector) enabled() bool { return in != nil && in.rate > 0 }

// next advances the splitmix64 stream. Callers hold in.mu.
func (in *Injector) next() uint64 {
	in.state += 0x9E3779B97F4A7C15
	z := in.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// draw returns a uniform float in [0,1). Callers hold in.mu.
func (in *Injector) draw() float64 {
	return float64(in.next()>>11) / float64(1<<53)
}

// fire decides one probe and logs it when it faults. Callers hold in.mu.
func (in *Injector) fire(kind Kind, code Code, op string, atUS float64) bool {
	if in.draw() >= in.rate {
		return false
	}
	in.seq++
	in.records = append(in.records, Record{Seq: in.seq, Kind: kind, Code: code, Op: op, AtUS: atUS})
	return true
}

// Transfer probes one PCIe transfer. A firing probe yields a hard transfer
// failure or (half the time) an in-flight corruption; both are transient —
// re-transferring is the correct recovery.
func (in *Injector) Transfer(op string, atUS float64) *Error {
	if !in.enabled() {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.draw() >= in.rate {
		return nil
	}
	kind, code := TransferFail, OutOfResources
	if in.draw() < 0.5 {
		kind, code = TransferCorrupt, ExecStatusErrorForEvents
	}
	in.seq++
	in.records = append(in.records, Record{Seq: in.seq, Kind: kind, Code: code, Op: op, AtUS: atUS})
	return &Error{Kind: kind, Code: code, Op: op, Transient: true}
}

// Enqueue probes one kernel-enqueue call (transient CL_OUT_OF_HOST_MEMORY).
func (in *Injector) Enqueue(op string, atUS float64) *Error {
	if !in.enabled() {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.fire(EnqueueFail, OutOfHostMemory, op, atUS) {
		return nil
	}
	return &Error{Kind: EnqueueFail, Code: OutOfHostMemory, Op: op, Transient: true}
}

// Stall probes one kernel execution; a firing probe returns a duration
// multiplier > 1 (the kernel wedges), otherwise 1. Stalls carry no CL error:
// they only lengthen the modeled time.
func (in *Injector) Stall(op string, atUS float64) float64 {
	if !in.enabled() {
		return 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.fire(KernelStall, Success, op, atUS) {
		return 1
	}
	return stallFactor
}

// Records returns a copy of the fault ledger in injection order.
func (in *Injector) Records() []Record {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Record, len(in.records))
	copy(out, in.records)
	return out
}
