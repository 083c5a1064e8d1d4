package testgen

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/programs"
)

func mustNode(t *testing.T, p *ir.Program, label string) int {
	t.Helper()
	n := p.NodeByLabel(label)
	if n == nil {
		t.Fatalf("no node labeled %q", label)
	}
	return n.ID
}

func genFor(t *testing.T, p *ir.Program, label string) *AdvTrace {
	t.Helper()
	adv, err := Generate(p, mustNode(t, p, label), Options{Seed: 1})
	if err != nil {
		t.Fatalf("generate %s/%s: %v", p.Name, label, err)
	}
	if !adv.Validated {
		t.Fatalf("generated trace for %s/%s did not validate (%d packets)", p.Name, label, len(adv.Packets))
	}
	return adv
}

func TestGenerateStatelessBranch(t *testing.T) {
	p := programs.CopyToCPU()
	adv := genFor(t, p, "to_cpu")
	if len(adv.Packets) == 0 {
		t.Fatal("no packets")
	}
	// The SYN bit must be set on the triggering packet.
	if adv.Packets[0].TCPFlags&ir.FlagSYN == 0 {
		t.Fatalf("SYN not set: flags=%x", adv.Packets[0].TCPFlags)
	}
}

func TestGenerateTableDefault(t *testing.T) {
	p := programs.ACL()
	adv := genFor(t, p, "acl_miss")
	// The packet must miss every entry.
	pk := adv.Packets[len(adv.Packets)-1]
	if (pk.DstPort == 22 || pk.DstPort == 80 || pk.DstPort == 443) && pk.Proto == ir.ProtoTCP {
		t.Fatalf("packet matches an ACL entry: %+v", pk)
	}
}

func TestGenerateHashCollision(t *testing.T) {
	p := programs.HTable(256, 16)
	adv := genFor(t, p, "flow_collision")
	if len(adv.Packets) < 2 {
		t.Fatalf("collision needs at least 2 packets, got %d", len(adv.Packets))
	}
}

func TestGenerateDeepGuardCounter(t *testing.T) {
	p := programs.Counter(32)
	adv := genFor(t, p, "tcp_sample")
	// Needs at least 32 TCP packets.
	if len(adv.Packets) < 32 {
		t.Fatalf("expected ≥32 packets, got %d", len(adv.Packets))
	}
	tcp := 0
	for _, pk := range adv.Packets {
		if pk.Proto == ir.ProtoTCP {
			tcp++
		}
	}
	if tcp < 32 {
		t.Fatalf("only %d TCP packets", tcp)
	}
}

func TestGenerateBlinkReroute(t *testing.T) {
	p := programs.Blink()
	adv := genFor(t, p, "reroute")
	if len(adv.Packets) < 33 {
		t.Fatalf("reroute needs >32 retransmissions, got %d packets", len(adv.Packets))
	}
	// The trace must contain repeated sequence numbers (retransmissions).
	repeats := 0
	for i := 1; i < len(adv.Packets); i++ {
		if adv.Packets[i].Seq == adv.Packets[i-1].Seq {
			repeats++
		}
	}
	if repeats < 32 {
		t.Fatalf("only %d retransmission pairs", repeats)
	}
}

func TestGenerateBloomMissFollowup(t *testing.T) {
	p := programs.P40f()
	adv := genFor(t, p, "db_followup")
	if len(adv.Packets) < 2 {
		t.Fatal("needs the SYN (mark) then a follow-up packet")
	}
}

func TestGenerateNetCacheMiss(t *testing.T) {
	p := programs.NetCache()
	genFor(t, p, "cache_miss")
}

func TestGeneratePoiseRecirc(t *testing.T) {
	p := programs.Poise()
	genFor(t, p, "data_collision")
}

func TestGenerateDecompositionPopulated(t *testing.T) {
	p := programs.Counter(64)
	adv := genFor(t, p, "tcp_sample")
	if adv.Decomp.Total() <= 0 {
		t.Fatal("decomposition empty")
	}
	if adv.Decomp.Symbex <= 0 {
		t.Fatal("symbex time missing")
	}
}

func TestGenerateInvalidTarget(t *testing.T) {
	p := programs.CopyToCPU()
	if _, err := Generate(p, 9999, Options{}); err == nil {
		t.Fatal("out-of-range target should error")
	}
}

// Unknown device models are an error, not a silent idealized run.
func TestGenerateUnknownTargetModel(t *testing.T) {
	p := programs.CopyToCPU()
	_, err := Generate(p, mustNode(t, p, "to_cpu"), Options{Target: "bmv2"})
	if err == nil {
		t.Fatal("unknown target model must error")
	}
	for _, want := range []string{`"bmv2"`, "ebpf", "idealized", "tofino"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// Havocing must search slots and collisions in the table the device holds:
// on tofino a 1000-slot table keeps 512 slots, and 1000 is not a multiple
// of 512, so keys colliding modulo 1000 rarely collide on the device.
func TestHavocUsesLoweredTableSize(t *testing.T) {
	p := programs.HTable(1000, 4)
	node := mustNode(t, p, "flow_collision")
	for seed := int64(1); seed <= 5; seed++ {
		adv, err := Generate(p, node, Options{Seed: seed, Target: "tofino"})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !adv.Validated {
			t.Fatalf("seed %d: collision trace did not validate on tofino", seed)
		}
	}
}

func TestWorkloadAmplification(t *testing.T) {
	p := programs.Counter(8)
	adv := genFor(t, p, "tcp_sample")
	w := Workload(adv.Packets, 3, 500)
	if w.Len() != 1500 {
		t.Fatalf("workload length = %d, want 1500", w.Len())
	}
	if w.Duration() == 0 {
		t.Fatal("workload has no time span")
	}
}

func TestGenerateTop10AcrossSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-system generation sweep skipped in -short")
	}
	// For a representative subset, the lowest-probability expensive blocks
	// must be generatable.
	cases := []struct{ name, label string }{
		{"lb (S1)", "conn_collision"},
		{"flowlet (S2)", "flowlet_collision"},
		{"NetHCF (S9)", "hc_mismatch"},
		{"NetWarden (S11)", "dup_ack"},
		{"*Flow (S7)", "gpv_evict"},
	}
	for _, tc := range cases {
		m, ok := programs.ByName(tc.name)
		if !ok {
			t.Fatalf("program %s missing", tc.name)
		}
		p := m.Build()
		adv, err := Generate(p, mustNode(t, p, tc.label), Options{Seed: 3})
		if err != nil {
			t.Errorf("%s/%s: %v", tc.name, tc.label, err)
			continue
		}
		if !adv.Validated {
			t.Errorf("%s/%s: not validated", tc.name, tc.label)
		}
	}
}
