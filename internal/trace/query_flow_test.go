package trace_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/programs"
	"repro/internal/trace"
)

// pairEqualByFlowID is PairEqualProb as it was written before flows got a
// struct key: flows keyed by their FlowID strings.
func pairEqualByFlowID(tr *trace.Trace, field string) (float64, bool) {
	last := map[string]uint64{}
	pairs, equal := 0, 0
	for i := range tr.Packets {
		p := &tr.Packets[i]
		v, ok := p.Field(field)
		if !ok {
			continue
		}
		id := p.FlowID()
		if prev, seen := last[id]; seen {
			pairs++
			if prev == v {
				equal++
			}
		}
		last[id] = v
	}
	if pairs == 0 {
		return 0, false
	}
	return float64(equal) / float64(pairs), true
}

// Keying flows by FlowKey must not change any pair-equality answer: on
// every zoo workload's trace and every standard field, the oracle returns
// exactly what the FlowID-keyed scan returns.
func TestPairEqualProbMatchesFlowIDKeying(t *testing.T) {
	seen := map[trace.GenOptions]bool{}
	for _, m := range programs.All() {
		gen := m.Workload(1)
		if seen[gen] {
			continue // programs sharing a workload share its trace
		}
		seen[gen] = true
		tr := trace.Generate(gen)
		q := trace.NewQueryProcessor(tr)
		for _, f := range ir.StdFields {
			got, gotOK := q.PairEqualProb(f.Name)
			want, wantOK := pairEqualByFlowID(tr, f.Name)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: PairEqualProb(%q) = %v, %v; FlowID keying gives %v, %v",
					m.Name, f.Name, got, gotOK, want, wantOK)
			}
		}
	}
	if len(seen) < 2 {
		t.Fatalf("only %d distinct zoo workloads", len(seen))
	}

	// Flows that differ in one tuple field only are still different flows.
	base := trace.Packet{Proto: 6, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Seq: 10}
	var tr trace.Trace
	for i, vary := range []func(p *trace.Packet){
		func(p *trace.Packet) {},
		func(p *trace.Packet) { p.Proto = 17 },
		func(p *trace.Packet) { p.SrcIP = 9 },
		func(p *trace.Packet) { p.DstIP = 9 },
		func(p *trace.Packet) { p.SrcPort = 9 },
		func(p *trace.Packet) { p.DstPort = 9 },
	} {
		for j := 0; j < 2; j++ {
			p := base
			p.Seq += uint32(i * j) // every flow but the first changes seq
			vary(&p)
			tr.Packets = append(tr.Packets, p)
		}
	}
	got, _ := trace.NewQueryProcessor(&tr).PairEqualProb("seq")
	want, _ := pairEqualByFlowID(&tr, "seq")
	if got != want || want != 1.0/6 {
		t.Fatalf("PairEqualProb(seq) over single-field flow variants = %v, FlowID keying %v, want 1/6", got, want)
	}
}
