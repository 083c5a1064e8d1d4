package trace

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestPacketFieldRoundtrip(t *testing.T) {
	var p Packet
	fields := []string{"proto", "src_ip", "dst_ip", "src_port", "dst_port",
		"tcp_flags", "seq", "ack", "ttl", "pkt_len", "ipd", "key"}
	for i, f := range fields {
		p.SetField(f, uint64(i+1))
	}
	for i, f := range fields {
		v, ok := p.Field(f)
		if !ok || v != uint64(i+1) {
			t.Fatalf("field %s: got %d ok=%v", f, v, ok)
		}
	}
	if _, ok := p.Field("nonexistent"); ok {
		t.Fatal("unknown field should report !ok")
	}
	// A resolved setter writes what SetField writes, truncation included.
	for _, f := range fields {
		var a, b Packet
		a.SetField(f, math.MaxUint64-1)
		SetterFor(f).Set(&b, math.MaxUint64-1)
		va, _ := a.Field(f)
		vb, _ := b.Field(f)
		if va != vb {
			t.Fatalf("field %s: SetField wrote %d, Setter %d", f, va, vb)
		}
	}
}

func TestPacketClone(t *testing.T) {
	p := Packet{Proto: 6, Extra: map[string]uint64{"key": 1}}
	q := p.Clone()
	q.Extra["key"] = 2
	if p.Extra["key"] != 1 {
		t.Fatal("clone shares Extra map")
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	tr := Generate(GenOptions{Seed: 1, Packets: 500, Flows: 20, CtxRate: 0.1, KeySpace: 100})
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len %d != %d", got.Len(), tr.Len())
	}
	for i := range tr.Packets {
		a, b := tr.Packets[i], got.Packets[i]
		if a.TS != b.TS || a.Proto != b.Proto || a.Seq != b.Seq || a.IPD != b.IPD {
			t.Fatalf("packet %d differs: %+v vs %+v", i, a, b)
		}
		for k, v := range a.Extra {
			if b.Extra[k] != v {
				t.Fatalf("packet %d extra %s differs", i, k)
			}
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTMAGIC...."))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestFileRoundtrip(t *testing.T) {
	tr := Generate(GenOptions{Seed: 2, Packets: 100, Flows: 5})
	path := filepath.Join(t.TempDir(), "t.p4wntrc")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 100 {
		t.Fatalf("got %d packets", got.Len())
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(GenOptions{Seed: 7, Packets: 300})
	b := Generate(GenOptions{Seed: 7, Packets: 300})
	for i := range a.Packets {
		if a.Packets[i].TS != b.Packets[i].TS || a.Packets[i].Seq != b.Packets[i].Seq {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestGenerateTCPShare(t *testing.T) {
	tr := Generate(GenOptions{Seed: 3, Packets: 5000, TCPShare: 0.9})
	tcp := 0
	for i := range tr.Packets {
		if tr.Packets[i].Proto == ProtoTCP {
			tcp++
		}
	}
	share := float64(tcp) / float64(tr.Len())
	if share < 0.75 || share > 0.99 {
		t.Fatalf("TCP share %v far from configured 0.9 (flow popularity skews packet share)", share)
	}
}

func TestGenerateRetransRate(t *testing.T) {
	tr := Generate(GenOptions{Seed: 4, Packets: 20000, RetransRate: 0.05})
	q := NewQueryProcessor(tr)
	pe, ok := q.PairEqualProb("seq")
	if !ok {
		t.Fatal("no pair-equality answer")
	}
	if math.Abs(pe-0.05) > 0.02 {
		t.Fatalf("measured retrans ratio %v, configured 0.05", pe)
	}
}

func TestQueryProcessorMarginals(t *testing.T) {
	tr := Generate(GenOptions{Seed: 5, Packets: 10000, TCPShare: 0.9})
	q := NewQueryProcessor(tr)
	d, ok := q.FieldDist("proto")
	if !ok {
		t.Fatal("proto dist missing")
	}
	pTCP := d.P(ProtoTCP)
	if pTCP < 0.7 || pTCP > 1.0 {
		t.Fatalf("P(tcp) = %v", pTCP)
	}
	// Mass normalized.
	if m := d.MassIn(0, 255); math.Abs(m-1) > 1e-9 {
		t.Fatalf("proto mass = %v", m)
	}
	// High-cardinality field gets bucketed but stays normalized.
	d2, ok := q.FieldDist("src_ip")
	if !ok {
		t.Fatal("src_ip dist missing")
	}
	if m := d2.MassIn(0, ^uint64(0)>>1); m <= 0 {
		t.Fatal("src_ip dist empty")
	}
}

func TestQueryCache(t *testing.T) {
	tr := Generate(GenOptions{Seed: 6, Packets: 1000})
	q := NewQueryProcessor(tr)
	q.FieldDist("proto")
	scans := q.Scans()
	q.FieldDist("proto")
	if q.Scans() != scans {
		t.Fatal("second query should hit cache")
	}
	if q.QueryCount() != 2 {
		t.Fatalf("query count = %d", q.QueryCount())
	}
	q.FieldDistNoCache("proto")
	if q.Scans() != scans+1 {
		t.Fatal("no-cache query should rescan")
	}
	// Absent answers are cached too: a field the trace lacks, and a pair
	// query with no within-flow pair, scan once each.
	scans = q.Scans()
	for i := 0; i < 2; i++ {
		if _, ok := q.FieldDist("key"); ok {
			t.Fatal("key not generated: should be unknown")
		}
		if _, ok := q.PairEqualProb("key"); ok {
			t.Fatal("key pair-equality should be unknown")
		}
	}
	if got := q.Scans() - scans; got != 2 {
		t.Fatalf("two absent fields queried twice each scanned %d times, want 2", got)
	}
}

// TestQueryCacheConcurrent queries the same fields from many goroutines
// (run it with -race): each distinct query scans the trace once, however
// the goroutines interleave, and every caller gets the same answer.
func TestQueryCacheConcurrent(t *testing.T) {
	tr := Generate(GenOptions{Seed: 6, Packets: 2000})
	q := NewQueryProcessor(tr)
	fields := []string{"proto", "src_ip", "seq", "key", "absent"}
	const goroutines = 8
	var wg sync.WaitGroup
	got := make([]map[string][4]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = map[string][4]float64{}
			for i := range fields {
				f := fields[(i+g)%len(fields)]
				d, ok := q.FieldDist(f)
				pe, pok := q.PairEqualProb(f)
				got[g][f] = [4]float64{d.MassIn(0, 255), b2f(ok), pe, b2f(pok)}
			}
		}(g)
	}
	wg.Wait()
	if want := 2 * len(fields); q.Scans() != want {
		t.Fatalf("scans = %d, want %d (one per distinct query)", q.Scans(), want)
	}
	if want := goroutines * 2 * len(fields); q.QueryCount() != want {
		t.Fatalf("queries = %d, want %d", q.QueryCount(), want)
	}
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(got[g], got[0]) {
			t.Fatalf("goroutine %d answers %v, goroutine 0 %v", g, got[g], got[0])
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestUnknownFieldQueries(t *testing.T) {
	tr := Generate(GenOptions{Seed: 8, Packets: 100})
	q := NewQueryProcessor(tr)
	if _, ok := q.FieldDist("key"); ok {
		t.Fatal("key not generated: should be unknown")
	}
	if _, ok := q.PairEqualProb("key"); ok {
		t.Fatal("key pair-equality should be unknown")
	}
}

func TestRatioWhere(t *testing.T) {
	tr := Generate(GenOptions{Seed: 9, Packets: 5000})
	q := NewQueryProcessor(tr)
	syn := q.RatioWhere(func(p *Packet) bool { return p.TCPFlags&FlagSYN != 0 })
	if syn <= 0 || syn > 0.5 {
		t.Fatalf("SYN ratio %v implausible", syn)
	}
}

func TestTopValues(t *testing.T) {
	tr := Generate(GenOptions{Seed: 10, Packets: 10000, KeySpace: 1000})
	q := NewQueryProcessor(tr)
	top := q.TopValues("key", 10)
	if len(top) != 10 {
		t.Fatalf("want 10 hot keys, got %d", len(top))
	}
	// Zipf: key 0 should be the hottest.
	if top[0] != 0 {
		t.Fatalf("hottest key = %d, expected 0 under Zipf", top[0])
	}
}

func TestSliceAndDuration(t *testing.T) {
	tr := Generate(GenOptions{Seed: 11, Packets: 1000})
	mid := tr.Packets[500].TS
	first := tr.Slice(0, mid)
	second := tr.Slice(mid, ^uint64(0))
	if first.Len()+second.Len() != tr.Len() {
		t.Fatalf("slices don't partition: %d + %d != %d", first.Len(), second.Len(), tr.Len())
	}
	if tr.Duration() == 0 {
		t.Fatal("duration should be positive")
	}
}

func TestEpochsDiffer(t *testing.T) {
	qa := NewQueryProcessor(Generate(Epoch(2016)))
	qb := NewQueryProcessor(Generate(Epoch(2019)))
	pa, _ := qa.PairEqualProb("seq")
	pb, _ := qb.PairEqualProb("seq")
	if pa <= pb {
		t.Fatalf("2016 retrans (%v) should exceed 2019 (%v)", pa, pb)
	}
}

func TestRetime(t *testing.T) {
	tr := Generate(GenOptions{Seed: 20, Packets: 1000})
	tr.Retime(5_000_000, 500)
	if tr.Packets[0].TS != 5_000_000 {
		t.Fatalf("start TS = %d", tr.Packets[0].TS)
	}
	if got := tr.Packets[1].TS - tr.Packets[0].TS; got != 2000 {
		t.Fatalf("spacing = %d us, want 2000", got)
	}
	// 1000 packets at 500 pps spans ~2 virtual seconds.
	if d := tr.Duration(); d < 1_900_000 || d > 2_100_000 {
		t.Fatalf("duration = %d us", d)
	}
}

func TestConcat(t *testing.T) {
	a := Generate(GenOptions{Seed: 21, Packets: 100})
	b := Generate(GenOptions{Seed: 22, Packets: 50})
	a.Retime(0, 100)
	b.Retime(0, 100)
	c := Concat(a, b)
	if c.Len() != 150 {
		t.Fatalf("len = %d", c.Len())
	}
	// Second half starts right after the first and preserves ordering.
	if c.Packets[100].TS <= c.Packets[99].TS {
		t.Fatal("concat halves overlap in time")
	}
	for i := 1; i < c.Len(); i++ {
		if c.Packets[i].TS < c.Packets[i-1].TS {
			t.Fatalf("timestamps regress at %d", i)
		}
	}
	// Concat must not alias the source packets.
	c.Packets[120].SetField("key", 99)
	if v, _ := b.Packets[20].Field("key"); v == 99 {
		t.Fatal("Concat aliases source Extra maps")
	}
}

func BenchmarkTraceGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(GenOptions{Seed: int64(i), Packets: 10000})
	}
}
