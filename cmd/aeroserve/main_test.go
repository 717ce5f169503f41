package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aero/internal/dataset"
)

// serve builds aeroserve once per test binary and runs it over a tiny
// generated field, returning its exit code and stderr.
func serve(t *testing.T, args ...string) (int, string) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the command with")
	}
	dir := t.TempDir()
	exe := filepath.Join(dir, "aeroserve")
	if out, err := exec.Command(goTool, "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	d := dataset.SyntheticConfig{
		Name: "tiny", N: 4, TrainLen: 300, TestLen: 200,
		NoiseVariates: 2, AnomalySegments: 2, NoisePct: 2, VariableFrac: 0.5, Seed: 1,
	}.Generate()
	if err := dataset.WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-dir", dir, "-dataset", "tiny", "-backend", "fluxev", "-tenants", "2"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("run aeroserve: %v", err)
	return 0, ""
}

// -stats 0 used to panic in time.NewTicker; it means no periodic line.
func TestStatsZeroDisablesPeriodicLine(t *testing.T) {
	code, stderr := serve(t, "-stats", "0", "-testlen", "120")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "\nstats: ") {
		t.Fatalf("-stats 0 still printed a periodic stats line:\n%s", stderr)
	}
	if !strings.Contains(stderr, "240 frames") {
		t.Fatalf("summary does not account for 2 tenants × 120 frames:\n%s", stderr)
	}
}

// A negative -stats interval and a tenant count below one are usage
// errors: exit 2 with the usage text, as for a value the flag package
// cannot parse.
func TestStatsNegativeIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-stats", "-1s"},
		// No tenants used to panic indexing the last subscription, and a
		// negative count in make.
		{"-tenants", "0"},
		{"-tenants", "-1"},
	} {
		code, stderr := serve(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want the usage-error exit 2:\n%s", args, code, stderr)
		}
		if !strings.Contains(stderr, "flag "+args[0]) || !strings.Contains(stderr, "Usage") {
			t.Fatalf("%v: no usage message naming %s:\n%s", args, args[0], stderr)
		}
	}
}
