package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// `p4wn targets` lists every registered device model with its limits.
func TestTargetsSubcommand(t *testing.T) {
	out, _, code := p4wnCmd(t, "targets")
	if code != 0 {
		t.Fatalf("targets exit = %d\n%s", code, out)
	}
	for _, want := range []string{"idealized", "tofino", "ebpf",
		"stages<=12(drop)", "no-recirc", "none"} {
		if !strings.Contains(out, want) {
			t.Errorf("targets output missing %q:\n%s", want, out)
		}
	}
}

// Unknown device models follow the subcommand usage contract: an error
// naming the bad target plus the known registry, the usage line, exit 2.
func TestProfileUnknownTargetExit2(t *testing.T) {
	_, errOut, code := p4wnCmd(t, "profile", "-prog", "counter", "-target", "bmv2")
	if code != 2 {
		t.Fatalf("profile -target bmv2 exit = %d, want 2\n%s", code, errOut)
	}
	if !strings.Contains(errOut, `unknown target "bmv2"`) ||
		!strings.Contains(errOut, "tofino") {
		t.Errorf("error must name the target and the registry:\n%s", errOut)
	}
	if !strings.Contains(errOut, "usage: p4wn profile") {
		t.Errorf("usage synopsis missing:\n%s", errOut)
	}
}

func TestAdversarialUnknownTargetModelExit2(t *testing.T) {
	_, errOut, code := p4wnCmd(t, "adversarial", "-prog", "counter",
		"-target", "guard", "-target-model", "bmv2")
	if code != 2 {
		t.Fatalf("adversarial -target-model bmv2 exit = %d, want 2\n%s", code, errOut)
	}
	if !strings.Contains(errOut, `unknown target "bmv2"`) {
		t.Errorf("error must name the bad model:\n%s", errOut)
	}
}

// A known target profiles end to end through the CLI.
func TestProfileWithTargetRuns(t *testing.T) {
	out, _, code := p4wnCmd(t, "profile", "-prog", "counter (S12)", "-target", "tofino")
	if code != 0 {
		t.Fatalf("profile -target tofino exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "target tofino") {
		t.Errorf("run summary must name the target:\n%s", out)
	}
}

// -timeout and -max-iters reach the profiler options recorded in the run
// report; negative values are usage errors.
func TestProfileLoopBoundFlags(t *testing.T) {
	rep := filepath.Join(t.TempDir(), "r.json")
	out, errOut, code := p4wnCmd(t, "profile", "-prog", "counter (S12)",
		"-timeout", "1h", "-max-iters", "2", "-report", rep)
	if code != 0 {
		t.Fatalf("profile exit = %d\n%s%s", code, out, errOut)
	}
	data, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Options struct {
			MaxIters   int     `json:"max_iters"`
			TimeoutSec float64 `json:"timeout_sec"`
		} `json:"options"`
		Iterations []json.RawMessage `json:"iterations"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.Options.MaxIters != 2 || r.Options.TimeoutSec != 3600 {
		t.Errorf("report options = %+v, want max_iters 2, timeout_sec 3600", r.Options)
	}
	if len(r.Iterations) > 2 {
		t.Errorf("%d iterations recorded under -max-iters 2", len(r.Iterations))
	}
	for _, bad := range [][]string{{"-timeout", "-1s"}, {"-max-iters", "-3"}} {
		_, errOut, code := p4wnCmd(t, append([]string{"profile", "-prog", "counter (S12)"}, bad...)...)
		if code != 2 || !strings.Contains(errOut, "usage: p4wn profile") {
			t.Errorf("profile %v: exit %d, want 2 with usage\n%s", bad, code, errOut)
		}
	}
}
