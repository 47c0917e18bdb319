package main

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// A name that is neither a command nor an experiment — including the retired
// trace, timeline and serve-smoke subcommands — is a usage error that lists
// the commands.
func TestUnknownCommandIsUsageError(t *testing.T) {
	for _, name := range []string{"trace", "timeline", "serve-smoke", "bogus"} {
		err := dispatch(name, nil)
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: got %v, want usageError", name, err)
		}
		if !strings.Contains(err.Error(), usage()) {
			t.Errorf("%s: error does not list the commands: %v", name, err)
		}
	}
}

// The usage text is rendered from the commands table: it names every row,
// and every command line it shows (two-space indent) is a row.
func TestUsageListsExactlyTheTable(t *testing.T) {
	var listed []string
	for _, line := range strings.Split(usage(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  "); ok && rest != "" && rest[0] != ' ' {
			listed = append(listed, strings.Fields(rest)[0])
		}
	}
	var table []string
	for _, c := range commands {
		table = append(table, c.name)
		if !slices.Contains(listed, c.name) {
			t.Errorf("command %q is missing from the usage text", c.name)
		}
	}
	for _, name := range listed {
		if !slices.Contains(table, name) {
			t.Errorf("usage text names %q, which the commands table lacks", name)
		}
	}
	if len(listed) != len(table) {
		t.Errorf("usage lists %d commands, table has %d", len(listed), len(table))
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
