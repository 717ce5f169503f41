package core

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestVectorPathSelfCheck re-runs TestStreamScoreBitsPinned in a child with
// GODEBUG=cpu.fma=off. The CPU still has FMA — tensor's CPUID probe says yes —
// but math.Exp has left its fused path, so tensor's init self-check must notice
// that its packed exp no longer reproduces it and leave the dispatch
// variable false (the child skips every "vector" half), and the scores must
// be the ones the noFMA column pins.
func TestVectorPathSelfCheck(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestStreamScoreBitsPinned$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	for _, want := range []string{
		"math.Exp without FMA",
		"--- SKIP: TestStreamScoreBitsPinned/full/vector",
		"--- PASS: TestStreamScoreBitsPinned/full/scalar",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("child under GODEBUG=cpu.fma=off did not print %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "--- PASS: TestStreamScoreBitsPinned/full/vector") {
		t.Fatalf("the vector path stayed on although math.Exp left its FMA path:\n%s", out)
	}
}
