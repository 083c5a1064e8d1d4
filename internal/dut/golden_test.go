package dut_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/programs"
	"repro/internal/target"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden replay file under testdata")

const (
	goldenSeed    = 7
	goldenTrace   = 3000 // packets taken from the oracle's backing trace
	goldenSampled = 2000 // packets drawn from the oracle's field marginals
)

var goldenPath = filepath.Join("testdata", "replay_golden.json")

// goldenRun pins everything a replay makes observable.
type goldenRun struct {
	Totals    dut.Totals        `json:"totals"`
	Visits    map[string]int    `json:"visits"` // "<node id> <label>" -> entries
	Regs      map[string]uint64 `json:"regs"`
	Processed uint64            `json:"processed"`
}

// goldenTraceFor builds the replayed trace: the head of the workload trace
// that programs.OracleFor serves, then packets sampled from that oracle the
// way the profiler's SampPaths phase draws them.
func goldenTraceFor(m programs.Meta) *trace.Trace {
	full := trace.Generate(m.Workload(goldenSeed))
	tr := &trace.Trace{}
	for i := 0; i < goldenTrace && i < full.Len(); i++ {
		tr.Append(full.Packets[i].Clone())
	}
	gen := core.NewPacketSampler(m.Build(), programs.OracleFor(m, goldenSeed), rand.New(rand.NewSource(goldenSeed)))
	for i := 0; i < goldenSampled; i++ {
		tr.Append(gen.Next())
	}
	tr.Retime(0, 1000)
	return tr
}

func replayGolden(m programs.Meta, model *target.Model, tr *trace.Trace) goldenRun {
	prog := m.Build()
	sw := dut.New(prog, dut.Config{Target: model})
	visits := map[int]int{}
	sw.VisitHook = func(id int) { visits[id]++ }
	run := goldenRun{
		Totals: sw.Replay(tr).Totals(),
		Visits: map[string]int{},
		Regs:   map[string]uint64{},
	}
	for id, n := range visits {
		run.Visits[fmt.Sprintf("%d %s", id, prog.Node(id).Label)] = n
	}
	for _, r := range prog.Regs {
		run.Regs[r.Name] = sw.Reg(r.Name)
	}
	run.Processed = sw.Processed()
	return run
}

// TestReplayGolden replays a seeded oracle trace through every zoo program
// on every target and compares totals, per-block visit counts, final
// register values and the processed count against the recorded file.
// Regenerate with `go test ./internal/dut -run TestReplayGolden -update`
// only when a semantic change to the switch is intended.
func TestReplayGolden(t *testing.T) {
	got := map[string]goldenRun{}
	for _, m := range programs.All() {
		tr := goldenTraceFor(m)
		for _, model := range target.All() {
			got[m.Name+"@"+model.CanonicalName()] = replayGolden(m, model, tr)
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, replay produced %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden entry", key)
			continue
		}
		gb, _ := json.Marshal(g)
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: replay differs from golden\n got: %s\nwant: %s", key, gb, wb)
		}
	}
}
