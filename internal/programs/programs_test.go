package programs

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	if len(Stateless()) != 11 {
		t.Fatalf("want 11 stateless programs, got %d", len(Stateless()))
	}
	ids := map[int]bool{}
	for _, m := range Systems() {
		ids[m.ID] = true
	}
	for want := 1; want <= 16; want++ {
		if !ids[want] {
			t.Errorf("missing S%d", want)
		}
	}
}

func TestAllProgramsBuildAndValidate(t *testing.T) {
	for _, m := range All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			p := m.Build()
			if p == nil || len(p.Nodes()) == 0 {
				t.Fatal("empty program")
			}
			if p.Stateful() != (m.Stateful || m.Name == "switch.p4") {
				// switch.p4 carries a token register but is classified
				// stateless in the paper's table.
				if m.Name != "switch.p4" {
					t.Fatalf("stateful flag mismatch: prog=%v meta=%v", p.Stateful(), m.Stateful)
				}
			}
			if m.UsesHash && len(p.HashTables) == 0 {
				t.Fatal("meta says hash tables but program has none")
			}
			if m.UsesBloom && len(p.Blooms) == 0 {
				t.Fatal("meta says bloom filters but program has none")
			}
			if m.UsesSketch && len(p.Sketches) == 0 {
				t.Fatal("meta says sketches but program has none")
			}
		})
	}
}

func TestAllProgramsRunConcretely(t *testing.T) {
	for _, m := range All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			prog := m.Build()
			sw := dut.New(prog, dut.Config{})
			tr := trace.Generate(m.Workload(1))
			visited := map[int]bool{}
			sw.VisitHook = func(id int) { visited[id] = true }
			for i := 0; i < 2000 && i < tr.Len(); i++ {
				sw.Process(&tr.Packets[i])
			}
			if len(visited) < 2 {
				t.Fatalf("only %d nodes visited under normal traffic", len(visited))
			}
		})
	}
}

func TestAllProgramsProfileWithoutError(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep skipped in -short")
	}
	for _, m := range All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			prog := m.Build()
			prof, err := core.ProbProf(prog, nil, core.Options{
				Seed: 1, MaxIters: 6, Timeout: 20 * time.Second,
				SampleBudget: 4000, MaxPaths: 300000,
			})
			if err != nil {
				t.Fatalf("profile error: %v", err)
			}
			if prof.Coverage < 0.5 {
				t.Fatalf("coverage %.2f too low", prof.Coverage)
			}
		})
	}
}

// TestBlinkRerouteNeedsTelescoping is the telescoping ablation on Blink:
// its retransmission tracking carries cross-packet symbolic state that
// merging cannot remove, so without telescoping (and without sampling) the
// main loop never reaches the depth-33 reroute block, while telescoping
// estimates it from a short probe.
func TestBlinkRerouteNeedsTelescoping(t *testing.T) {
	for _, disable := range []bool{false, true} {
		prof, err := core.ProbProf(Blink(), nil, core.Options{
			Seed: 1, MaxIters: 12, DisableTelescope: disable, DisableSampling: true,
			Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		rr, _ := prof.ByLabel("reroute")
		if disable && !rr.P.IsZero() {
			t.Fatalf("reroute estimated without telescoping: %v", rr.P)
		}
		if !disable && rr.P.IsZero() {
			t.Fatal("telescoping should estimate reroute")
		}
	}
}

func TestBlinkRerouteIsDeepEdgeCase(t *testing.T) {
	prog := Blink()
	oracle := OracleFor(mustMeta(t, "Blink (S5)"), 42)
	prof, err := core.ProbProf(prog, oracle, core.Options{Seed: 1, MaxIters: 5, SampleBudget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := prof.ByLabel("reroute")
	if !ok {
		t.Fatal("reroute block missing from profile")
	}
	if rr.Source != core.SrcTelescope {
		t.Fatalf("reroute should be telescoped, got %v", rr.Source)
	}
	// Retransmissions are ~2%: the 33-repetition estimate is astronomically
	// small but strictly positive.
	if rr.P.IsZero() || rr.P.Log10() > -20 {
		t.Fatalf("reroute probability implausible: %v", rr.P)
	}
	// And it should rank among the rarest blocks.
	rank := -1
	for i, n := range prof.Nodes {
		if n.ID == rr.ID {
			rank = i
		}
	}
	if rank > len(prof.Nodes)/4 {
		t.Fatalf("reroute rank %d not in the rarest quartile", rank)
	}
}

func TestNetCacheHitDominatesUnderZipf(t *testing.T) {
	m := mustMeta(t, "NetCache (S6)")
	prog := m.Build()
	sw := dut.New(prog, dut.Config{})
	hits, misses := 0, 0
	sw.VisitHook = func(id int) {
		switch prog.Node(id).Label {
		case "cache_hit":
			hits++
		case "cache_miss":
			misses++
		}
	}
	tr := trace.Generate(m.Workload(7))
	for i := range tr.Packets {
		sw.Process(&tr.Packets[i])
	}
	// Write-allocate populates hot keys; Zipf reads then hit in-switch.
	if hits <= misses {
		t.Fatalf("cache should mostly hit under Zipf: hits=%d misses=%d", hits, misses)
	}
}

func mustMeta(t *testing.T, name string) Meta {
	t.Helper()
	m, ok := ByName(name)
	if !ok {
		t.Fatalf("program %q not registered", name)
	}
	return m
}

func TestEpochWorkloadsDiffer(t *testing.T) {
	m := mustMeta(t, "Blink (S5)")
	a := trace.Generate(m.Workload(1))
	b := trace.Generate(m.Workload(2))
	if a.Packets[100].SrcIP == b.Packets[100].SrcIP && a.Packets[100].Seq == b.Packets[100].Seq {
		t.Fatal("different seeds should give different traffic")
	}
}
