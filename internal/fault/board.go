package fault

// Board-level faults: whole-device failure modes the fleet layer
// (internal/fleet) recovers from by rerouting work across boards, as opposed
// to the operation-level probes above, which the single-device retry policy
// absorbs. These are scheduled, not probabilistic: a chaos run names the
// victim device and the simulated time of the hit, so a kill-a-board test is
// exactly reproducible and the assertion "no request was dropped" is about
// the scheduler, never about the dice.

import "fmt"

// Board-level failure modes, continuing the Kind enum.
const (
	// DeviceLoss: the board drops off the bus entirely (XCVR loss, shell
	// crash, host hot-unplugs the PAC). In-flight work is gone; the host only
	// notices when heartbeats stop or a dispatch wedges past the watchdog.
	DeviceLoss Kind = iota + EnqueueFail + 1
	// StickyEnqueue: every enqueue to the board fails for a window (exhausted
	// device memory pool, wedged command queue). The board still heartbeats,
	// so only dispatch failures reveal it.
	StickyEnqueue
	// Brownout: the board stays up but runs slow for a window (thermal
	// throttle, a neighbor saturating the PCIe switch). Service times stretch
	// by Factor; heartbeats arrive late, marking the device suspect.
	Brownout
)

// boardKindNames extends Kind.String for the board-level kinds.
func boardKindName(k Kind) (string, bool) {
	switch k {
	case DeviceLoss:
		return "device-loss", true
	case StickyEnqueue:
		return "sticky-enqueue", true
	case Brownout:
		return "brownout", true
	}
	return "", false
}

// BoardFault is one scheduled board-level fault: Kind hits Device at AtUS on
// the simulated clock. DurUS bounds the window for recoverable kinds; for
// DeviceLoss, DurUS == 0 means the board never comes back. Factor is the
// Brownout service-time multiplier (ignored otherwise).
type BoardFault struct {
	Device string  `json:"device"`
	Kind   Kind    `json:"kind"`
	AtUS   float64 `json:"at_us"`
	DurUS  float64 `json:"dur_us,omitempty"`
	Factor float64 `json:"factor,omitempty"`
}

// EndUS returns the end of the fault window; +Inf conceptually for a
// permanent DeviceLoss, represented as a very large sentinel so comparisons
// stay total.
func (f BoardFault) EndUS() float64 {
	if f.Kind == DeviceLoss && f.DurUS <= 0 {
		return permanentUS
	}
	return f.AtUS + f.DurUS
}

// permanentUS is far beyond any simulated run's horizon.
const permanentUS = 1e18

// Permanent reports whether the fault never clears.
func (f BoardFault) Permanent() bool { return f.Kind == DeviceLoss && f.DurUS <= 0 }

// Validate checks a scheduled board fault for internal consistency.
func (f BoardFault) Validate() error {
	if f.Device == "" {
		return fmt.Errorf("fault: board fault needs a device name")
	}
	if f.AtUS < 0 {
		return fmt.Errorf("fault: board fault on %s at negative time %.0f", f.Device, f.AtUS)
	}
	switch f.Kind {
	case DeviceLoss:
		// DurUS 0 is a permanent loss; positive is a bounce.
		if f.DurUS < 0 {
			return fmt.Errorf("fault: device-loss on %s with negative duration", f.Device)
		}
	case StickyEnqueue:
		if f.DurUS <= 0 {
			return fmt.Errorf("fault: sticky-enqueue on %s needs a positive window", f.Device)
		}
	case Brownout:
		if f.DurUS <= 0 {
			return fmt.Errorf("fault: brownout on %s needs a positive window", f.Device)
		}
		if f.Factor <= 1 {
			return fmt.Errorf("fault: brownout on %s needs factor > 1, got %g", f.Device, f.Factor)
		}
	default:
		return fmt.Errorf("fault: %s is not a board-level fault kind", f.Kind)
	}
	return nil
}

func (f BoardFault) String() string {
	s := fmt.Sprintf("%s on %s at t=%.0fus", f.Kind, f.Device, f.AtUS)
	if f.Permanent() {
		return s + " (permanent)"
	}
	s += fmt.Sprintf(" for %.0fus", f.DurUS)
	if f.Kind == Brownout {
		s += fmt.Sprintf(" x%.1f", f.Factor)
	}
	return s
}
