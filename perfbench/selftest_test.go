package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/trace"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(workloadNames(), ","); got != strings.Join(names, ",") {
		t.Errorf("workloads: benchmark has %s, BENCHMARK.json lists %s", got, strings.Join(names, ","))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the benchmark", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the benchmark", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// buildDaemon builds p4wnd for serve_fleet into a temporary directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "p4wnd"), "repro/cmd/p4wnd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building p4wnd: %v\n%s", err, out)
	}
	return dir
}

// runTiny runs one workload at the self-test size and decodes its result.
func runTiny(t *testing.T, bin, ref string, args ...string) (*result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	base := []string{"-size", "tiny", "-seconds", "0", "-root", "..",
		"-bin", bin, "-work", t.TempDir(), "-ref", ref}
	if code := run(append(base, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last output line is not a result: %v", err)
	}
	return &res, stderr.String()
}

func TestEveryWorkloadPrintsItsListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkFile(t)
	want := map[string][]string{}
	for _, m := range b.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range b.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	bin := buildDaemon(t)
	ref := filepath.Join(t.TempDir(), "none.json")
	for _, w := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			res, log := runTiny(t, bin, ref, "-workload", w, "-seed", "3", "-trace", traced)
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			exp := append([]string(nil), want[traced]...)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s trace %s prints %v, want %v", w, traced, got, exp)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, log)
			}
		}
	}
}

func TestCorruptedReferenceDigestIsAFailure(t *testing.T) {
	ref := filepath.Join(t.TempDir(), "ref.json")
	args := []string{"-workload", "attack_replay", "-seed", "5"}
	if res, log := runTiny(t, "", ref, append(args, "-record")...); !res.Correct {
		t.Fatalf("recording run failed:\n%s", log)
	}
	if res, log := runTiny(t, "", ref, args...); !res.Correct || res.Failed != 0 {
		t.Fatalf("run against its own recorded digests failed:\n%s", log)
	}
	refs, err := loadReferences(ref)
	if err != nil {
		t.Fatal(err)
	}
	digests, ok := refs.lookup(5, "tiny", "attack_replay")
	if !ok {
		t.Fatal("no digests recorded")
	}
	key := sortedKeys(digests)[0]
	digests[key] = "0000000000000000"
	if err := recordReference(ref, 5, "tiny", "attack_replay", digests); err != nil {
		t.Fatal(err)
	}
	res, log := runTiny(t, "", ref, args...)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest %s passed: correct=%v failed=%d", key, res.Correct, res.Failed)
	}
	if !strings.Contains(log, key) {
		t.Errorf("failure log does not name %s:\n%s", key, log)
	}
}

func TestProfileStoppedOnTimeoutCountsAsFailed(t *testing.T) {
	m, _ := programs.ByName("Blink (S5)")
	task := profTask{
		name: m.Name, prog: m.Build(), trace: trace.Generate(m.Workload(1)),
		opt: core.Options{Seed: 1, Workers: 1, MaxIters: 6, Timeout: time.Nanosecond, SampleBudget: 500},
	}
	// Explicit MaxIters, and MaxIters left for the profiler to default, as
	// the profile_wide tasks leave it.
	for _, maxIters := range []int{6, 0} {
		task.opt.MaxIters = maxIters
		pf, err := core.ProbProf(task.prog, trace.NewQueryProcessor(task.trace), task.opt)
		if err != nil {
			t.Fatal(err)
		}
		if msg := stopProblem(task, pf); !strings.Contains(msg, "Timeout") {
			t.Fatalf("MaxIters %d: a profile cut by its Timeout was not flagged: %q", maxIters, msg)
		}
	}
	task.opt.Timeout = noTimeout
	task.opt.MaxIters = 1
	pf, err := core.ProbProf(task.prog, trace.NewQueryProcessor(task.trace), task.opt)
	if err != nil {
		t.Fatal(err)
	}
	if msg := stopProblem(task, pf); msg != "" {
		t.Fatalf("a profile that reached MaxIters was flagged: %q", msg)
	}
}

func TestSelfTimeSubtractsChildSpans(t *testing.T) {
	tr := newTracer("t")
	t0 := time.Unix(0, 0)
	// A span before the mark, such as set-up, is left out.
	tr.add("p4c.parse", -1, t0, t0.Add(time.Second))
	mark := tr.len()
	root := tr.add("core.run", -1, t0, t0.Add(10*time.Second))
	tr.add("mc.count", root, t0.Add(1*time.Second), t0.Add(4*time.Second))
	tr.add("mc.count", root, t0.Add(3*time.Second), t0.Add(6*time.Second))  // overlaps the first
	tr.add("sym.step", root, t0.Add(9*time.Second), t0.Add(12*time.Second)) // runs past the parent
	self := tr.selfTimes(mark)
	if self["core"] != 4 || self["mc"] != 6 || self["sym"] != 3 || self["p4c"] != 0 {
		t.Fatalf("self times %v, want core 4, mc 6, sym 3, no p4c", self)
	}
}
