package main

import (
	"errors"
	"strings"
	"testing"
)

// A name that is neither a command nor an experiment — including the retired
// trace and timeline subcommands — is a usage error that lists the commands.
func TestUnknownCommandIsUsageError(t *testing.T) {
	for _, name := range []string{"trace", "timeline", "bogus"} {
		err := dispatch(name, nil)
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: got %v, want usageError", name, err)
		}
		if !strings.Contains(err.Error(), commands) {
			t.Errorf("%s: error does not list the commands: %v", name, err)
		}
	}
}

// -serial picks the pipelined single-queue mode; a folded deployment has no
// such mode, so the flag is a usage error rather than silently ignored.
func TestRunSerialRejectedOnFoldedNet(t *testing.T) {
	err := runTimed([]string{"-net", "mobilenetv1", "-serial", "-images", "1"})
	var ue *usageError
	if !errors.As(err, &ue) {
		t.Fatalf("got %v, want usageError", err)
	}
}

// A non-positive image count is a usage error (exit 2), caught before any
// deployment is built: a negative count used to panic in the timed driver,
// and zero printed a NaN frame rate.
func TestNonPositiveImagesIsUsageError(t *testing.T) {
	for _, c := range []struct {
		run  func([]string) error
		args []string
	}{
		{runTimed, []string{"-net", "lenet5", "-images", "-1"}},
		{runTimed, []string{"-net", "lenet5", "-images", "0"}},
		{runChaos, []string{"-images", "-2"}},
		{runChaos, []string{"-images", "0"}},
	} {
		err := c.run(c.args)
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Errorf("%v: got %v, want usageError", c.args, err)
		}
	}
}
