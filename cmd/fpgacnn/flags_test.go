package main

import (
	"errors"
	"flag"
	"io"
	"testing"
)

func parseFS(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.Int64("fault-seed", 0, "")
	fs.Float64("fault-rate", 0, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestValidateFaultFlags(t *testing.T) {
	fs := parseFS(t, "-fault-rate", "0.5")
	if err := validateFaultFlags(fs, 0.5, "fault-seed", "fault-rate"); err != nil {
		t.Fatalf("valid rate rejected: %v", err)
	}
	fs = parseFS(t, "-fault-rate", "1.5")
	err := validateFaultFlags(fs, 1.5, "fault-seed", "fault-rate")
	var ue *usageError
	if !errors.As(err, &ue) {
		t.Fatalf("rate 1.5: got %v, want usageError", err)
	}
	// Seed without rate is a silent no-op — reject it.
	fs = parseFS(t, "-fault-seed", "7")
	if err := validateFaultFlags(fs, 0, "fault-seed", "fault-rate"); !errors.As(err, &ue) {
		t.Fatalf("seed without rate: got %v, want usageError", err)
	}
	// Explicit rate 0 with a seed is allowed (deliberately disabling).
	fs = parseFS(t, "-fault-seed", "7", "-fault-rate", "0")
	if err := validateFaultFlags(fs, 0, "fault-seed", "fault-rate"); err != nil {
		t.Fatalf("explicit zero rate rejected: %v", err)
	}
}

func TestValidateRunShape(t *testing.T) {
	cases := []struct {
		name           string
		batch, workers int
		serial, noDB   bool
		profiling      bool
		wantErr        bool
	}{
		{name: "per-image default", batch: 0},
		{name: "batch engine", batch: 8, workers: 4},
		{name: "workers without batch", workers: 4, wantErr: true},
		{name: "no-double-buffer without batch", noDB: true, wantErr: true},
		{name: "serial with batch", batch: 8, serial: true, wantErr: true},
		{name: "profiling with batch", batch: 8, profiling: true, wantErr: true},
		{name: "serial per-image", serial: true},
		{name: "negative batch", batch: -1, wantErr: true},
	}
	for _, c := range cases {
		err := validateRunShape(c.batch, c.workers, c.serial, c.noDB, c.profiling)
		if gotErr := err != nil; gotErr != c.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", c.name, err, c.wantErr)
		}
		if err != nil {
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Errorf("%s: error %v is not a usageError", c.name, err)
			}
		}
	}
}

func TestValidateKillFlags(t *testing.T) {
	devs := []string{"s10sx-0", "s10sx-1", "cpuref"}
	if err := validateKillFlags("", 0, devs); err != nil {
		t.Fatalf("no kill: %v", err)
	}
	if err := validateKillFlags("s10sx-1", 5000, devs); err != nil {
		t.Fatalf("valid kill: %v", err)
	}
	var ue *usageError
	if err := validateKillFlags("s10sx-1", 0, devs); !errors.As(err, &ue) {
		t.Fatalf("board without time: %v", err)
	}
	if err := validateKillFlags("", 5000, devs); !errors.As(err, &ue) {
		t.Fatalf("time without board: %v", err)
	}
	if err := validateKillFlags("a10-0", 5000, devs); !errors.As(err, &ue) {
		t.Fatalf("unknown board: %v", err)
	}
}

func TestParseFlags(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("images", 3, "")
		return fs
	}
	if err := parseFlags(newFS(), []string{"-images", "4"}); err != nil {
		t.Fatalf("valid flags: %v", err)
	}
	for _, args := range [][]string{{"-bogus"}, {"-images", "x"}} {
		var ue *usageError
		if err := parseFlags(newFS(), args); !errors.As(err, &ue) {
			t.Errorf("%v: got %v, want usageError", args, err)
		}
	}
	for _, h := range []string{"-h", "-help"} {
		if err := parseFlags(newFS(), []string{h}); err != flag.ErrHelp {
			t.Errorf("%s: got %v, want flag.ErrHelp", h, err)
		}
	}
}
