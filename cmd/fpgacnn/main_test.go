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
