package main

// Centralized flag validation. Every subcommand funnels its cross-flag
// constraints through these helpers so conflicting combinations fail the
// same way everywhere: a typed *usageError, printed with the offending
// flags named, and exit status 2 (usage) instead of 1 (runtime failure).
// Before this, `-serial -batch 8` silently ignored -serial and
// `-fault-seed 7` without a rate was a no-op surprise.

import (
	"errors"
	"flag"
	"fmt"
	"strings"
)

// usageError is a flag/argument validation failure. main distinguishes it
// from runtime errors and exits 2, the conventional usage status.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, a ...any) *usageError {
	return &usageError{msg: fmt.Sprintf(format, a...)}
}

// parseFlags parses a subcommand's arguments. An unknown flag or a bad value
// is a *usageError (exit 2); -h passes flag.ErrHelp through, on which main
// exits 0.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return &usageError{msg: err.Error()}
}

// flagWasSet reports whether the user passed the named flag explicitly
// (default values are invisible to fs.Visit).
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// validateFaultFlags enforces the injector's invariants: the rate is a
// probability, and an explicit seed without a rate is a silent no-op the
// user almost certainly did not intend.
func validateFaultFlags(fs *flag.FlagSet, rate float64, seedFlag, rateFlag string) error {
	if rate < 0 || rate > 1 {
		return usagef("-%s must be in [0,1], got %g", rateFlag, rate)
	}
	if flagWasSet(fs, seedFlag) && rate == 0 && !flagWasSet(fs, rateFlag) {
		return usagef("-%s has no effect without -%s > 0", seedFlag, rateFlag)
	}
	return nil
}

// validateRunShape enforces the run-path combinations: the batch engine and
// the per-image loop have disjoint knobs, and mixing them used to silently
// ignore one side.
func validateRunShape(batch, workers int, serial, noDoubleBuffer, profiling bool) error {
	if batch < 0 {
		return usagef("-batch must be >= 0, got %d", batch)
	}
	if batch == 0 {
		if workers > 0 {
			return usagef("-workers applies to the batch engine; add -batch N")
		}
		if noDoubleBuffer {
			return usagef("-no-double-buffer applies to the batch engine; add -batch N")
		}
		return nil
	}
	if serial {
		return usagef("-serial (single command queue) conflicts with -batch (parallel batch engine)")
	}
	if profiling {
		return usagef("-profiling serializes execution and conflicts with -batch; profile the per-image path instead")
	}
	return nil
}

// validateKillFlags enforces the chaos pair: -kill-at-us and -kill-board
// only mean something together, and the victim must be a device the fleet
// actually has.
func validateKillFlags(killBoard string, killAtUS float64, devices []string) error {
	if (killBoard == "") != (killAtUS <= 0) {
		return usagef("-kill-board and -kill-at-us must be set together (board %q, at %g us)", killBoard, killAtUS)
	}
	if killBoard == "" {
		return nil
	}
	for _, d := range devices {
		if d == killBoard {
			return nil
		}
	}
	return usagef("-kill-board %q names no configured device (have %s)", killBoard, strings.Join(devices, ", "))
}
