package trace

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fieldValuesByMap is FieldValues as a map count: the reference the radix
// count must reproduce.
func fieldValuesByMap(t *Trace, field string) ([]uint64, []int) {
	counts := map[uint64]int{}
	for i := range t.Packets {
		if v, ok := t.Packets[i].Field(field); ok {
			counts[v]++
		}
	}
	vals := make([]uint64, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	cnts := make([]int, len(vals))
	for i, v := range vals {
		cnts[i] = counts[v]
	}
	return vals, cnts
}

// fuzzFieldTrace builds a trace from a fuzz input. The first byte keeps
// that many low bits of each value (0 keeps one bit, 63 all 64), which sets
// the cardinality; each further 3 bytes make one packet. A leading byte of
// 0xff gives the all-ones value and 0x00 the zero value, so full-width and
// zero values recur. "key" lives in Extra on packets with an odd third
// byte, so it is absent from the rest. Inputs past 1024 packets are cut
// there, which keeps each fuzz execution short.
func fuzzFieldTrace(spec []byte) *Trace {
	tr := &Trace{}
	if len(spec) == 0 {
		return tr
	}
	if max := 1 + 3*1024; len(spec) > max {
		spec = spec[:max]
	}
	mask := uint64(1)<<(uint(spec[0])%64+1) - 1
	for spec = spec[1:]; len(spec) >= 3; spec = spec[3:] {
		a, b, c := spec[0], spec[1], spec[2]
		v := (uint64(a)<<40 | uint64(b)<<20 | uint64(c)) * 0x9e3779b97f4a7c15
		switch a {
		case 0xff:
			v = ^uint64(0)
		case 0x00:
			v = 0
		}
		v &= mask
		var p Packet
		p.SetField("src_ip", v)
		p.SetField("seq", v>>7)
		p.SetField("proto", uint64(b))
		p.SetField("ttl", v>>56)
		if c&1 == 1 {
			p.SetField("key", v)
		}
		tr.Append(p)
	}
	return tr
}

// fieldValuesFields covers fixed fields of every width, a constant column
// (dst_port is never set), an Extra field present on some packets and a
// field no packet carries.
var fieldValuesFields = []string{"proto", "src_ip", "seq", "ttl", "dst_port", "key", "absent"}

// FuzzFieldValuesMatchesMapCount requires the radix count to return exactly
// the map count's values and counts, empty slices included.
func FuzzFieldValuesMatchesMapCount(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{63})
	f.Add([]byte{63, 0xff, 0xff, 0xff, 0, 0, 0, 0xff, 1, 3})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []byte{3, 15, 31, 63} {
		spec := make([]byte, 1+3*100)
		rng.Read(spec)
		spec[0] = bits
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec []byte) {
		tr := fuzzFieldTrace(spec)
		for _, field := range fieldValuesFields {
			vals, cnts := tr.FieldValues(field)
			wantVals, wantCnts := fieldValuesByMap(tr, field)
			if !reflect.DeepEqual(vals, wantVals) || !reflect.DeepEqual(cnts, wantCnts) {
				t.Fatalf("%s over %d packets: got %d values %v / %v, map count %d values %v / %v",
					field, tr.Len(), len(vals), vals, cnts, len(wantVals), wantVals, wantCnts)
			}
		}
	})
}

// TestFieldValuesGenerated compares the two counts on a generated trace
// with Extra fields, the oracle's input in the profiler.
func TestFieldValuesGenerated(t *testing.T) {
	tr := Generate(GenOptions{Seed: 3, Packets: 5000, KeySpace: 500})
	for _, field := range []string{"proto", "src_ip", "dst_ip", "src_port", "dst_port",
		"tcp_flags", "seq", "ack", "ttl", "pkt_len", "ipd", "key", "op", "absent"} {
		vals, cnts := tr.FieldValues(field)
		wantVals, wantCnts := fieldValuesByMap(tr, field)
		if !reflect.DeepEqual(vals, wantVals) || !reflect.DeepEqual(cnts, wantCnts) {
			t.Fatalf("%s: radix count differs from the map count", field)
		}
	}
}

// BenchmarkFieldValues counts each header field of a 20000-packet trace,
// the scans a profile_wide sampling fallback makes.
func BenchmarkFieldValues(b *testing.B) {
	tr := Generate(GenOptions{Seed: 1, Packets: 20000})
	fields := []string{"proto", "src_ip", "dst_ip", "src_port", "dst_port",
		"tcp_flags", "seq", "ack", "ttl", "pkt_len", "ipd", "key"}
	for _, count := range []struct {
		name string
		fn   func(*Trace, string) ([]uint64, []int)
	}{{"radix", (*Trace).FieldValues}, {"map", fieldValuesByMap}} {
		b.Run(count.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, f := range fields {
					count.fn(tr, f)
				}
			}
		})
	}
}
