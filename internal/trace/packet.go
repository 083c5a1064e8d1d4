// Package trace provides packet traces: the container and binary format,
// a synthetic CAIDA-like workload generator, and the interactive query
// processor that serves as P4wn's traffic oracle (the paper pins a pcap
// trace in memory and answers header-distribution queries against it,
// caching results).
package trace

import "fmt"

// Packet is one packet record. Fixed header fields mirror ir.StdFields;
// Extra carries program-specific fields (NetCache keys, Poise context
// types, ...).
type Packet struct {
	TS       uint64 // virtual time, microseconds
	Proto    uint8
	SrcIP    uint32
	DstIP    uint32
	SrcPort  uint16
	DstPort  uint16
	TCPFlags uint8
	Seq      uint32
	Ack      uint32
	TTL      uint8
	Len      uint16
	IPD      uint16 // inter-packet delay, milliseconds

	Extra map[string]uint64
}

// Field reads a header field by its IR name.
func (p *Packet) Field(name string) (uint64, bool) { return SetterFor(name).get(p) }

// SetField writes a header field by its IR name; unknown names go to Extra.
func (p *Packet) SetField(name string, v uint64) { SetterFor(name).Set(p, v) }

// Slots of the fixed header fields; slotExtra means the field lives in
// Extra.
const (
	slotExtra = iota
	slotProto
	slotSrcIP
	slotDstIP
	slotSrcPort
	slotDstPort
	slotTCPFlags
	slotSeq
	slotAck
	slotTTL
	slotLen
	slotIPD
)

// A Setter writes one header field, resolved once from its IR name, so a
// caller that sets the same fields on many packets skips the name match.
type Setter struct {
	slot int
	name string // the Extra key when slot is slotExtra
}

// SetterFor resolves a header field's IR name.
func SetterFor(name string) Setter {
	switch name {
	case "proto":
		return Setter{slot: slotProto}
	case "src_ip":
		return Setter{slot: slotSrcIP}
	case "dst_ip":
		return Setter{slot: slotDstIP}
	case "src_port":
		return Setter{slot: slotSrcPort}
	case "dst_port":
		return Setter{slot: slotDstPort}
	case "tcp_flags":
		return Setter{slot: slotTCPFlags}
	case "seq":
		return Setter{slot: slotSeq}
	case "ack":
		return Setter{slot: slotAck}
	case "ttl":
		return Setter{slot: slotTTL}
	case "pkt_len":
		return Setter{slot: slotLen}
	case "ipd":
		return Setter{slot: slotIPD}
	}
	return Setter{slot: slotExtra, name: name}
}

// get reads the field s writes; false when the field is neither a fixed
// header field nor in p's Extra.
func (s Setter) get(p *Packet) (uint64, bool) {
	switch s.slot {
	case slotProto:
		return uint64(p.Proto), true
	case slotSrcIP:
		return uint64(p.SrcIP), true
	case slotDstIP:
		return uint64(p.DstIP), true
	case slotSrcPort:
		return uint64(p.SrcPort), true
	case slotDstPort:
		return uint64(p.DstPort), true
	case slotTCPFlags:
		return uint64(p.TCPFlags), true
	case slotSeq:
		return uint64(p.Seq), true
	case slotAck:
		return uint64(p.Ack), true
	case slotTTL:
		return uint64(p.TTL), true
	case slotLen:
		return uint64(p.Len), true
	case slotIPD:
		return uint64(p.IPD), true
	}
	v, ok := p.Extra[s.name]
	return v, ok
}

// Set writes v into the field of p, truncated to the field's width.
func (s Setter) Set(p *Packet, v uint64) {
	switch s.slot {
	case slotProto:
		p.Proto = uint8(v)
	case slotSrcIP:
		p.SrcIP = uint32(v)
	case slotDstIP:
		p.DstIP = uint32(v)
	case slotSrcPort:
		p.SrcPort = uint16(v)
	case slotDstPort:
		p.DstPort = uint16(v)
	case slotTCPFlags:
		p.TCPFlags = uint8(v)
	case slotSeq:
		p.Seq = uint32(v)
	case slotAck:
		p.Ack = uint32(v)
	case slotTTL:
		p.TTL = uint8(v)
	case slotLen:
		p.Len = uint16(v)
	case slotIPD:
		p.IPD = uint16(v)
	default:
		if p.Extra == nil {
			p.Extra = map[string]uint64{}
		}
		p.Extra[s.name] = v
	}
}

// FlowID returns a canonical 5-tuple identifier string.
func (p *Packet) FlowID() string {
	return fmt.Sprintf("%d:%d:%d:%d:%d", p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto)
}

// FlowKey is a packet's 5-tuple as a comparable value: two packets have
// equal keys exactly when they have equal FlowIDs, and building one
// formats nothing.
type FlowKey struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Flow returns the packet's 5-tuple key.
func (p *Packet) Flow() FlowKey {
	return FlowKey{SrcIP: p.SrcIP, DstIP: p.DstIP, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Clone deep-copies the packet.
func (p *Packet) Clone() Packet {
	q := *p
	if p.Extra != nil {
		q.Extra = make(map[string]uint64, len(p.Extra))
		for k, v := range p.Extra {
			q.Extra[k] = v
		}
	}
	return q
}

// Trace is an ordered packet sequence.
type Trace struct {
	Packets []Packet
}

// Len returns the number of packets.
func (t *Trace) Len() int { return len(t.Packets) }

// Append adds a packet.
func (t *Trace) Append(p Packet) { t.Packets = append(t.Packets, p) }

// Duration returns the covered virtual time in microseconds.
func (t *Trace) Duration() uint64 {
	if len(t.Packets) == 0 {
		return 0
	}
	return t.Packets[len(t.Packets)-1].TS - t.Packets[0].TS
}

// Slice returns the sub-trace within [fromTS, toTS).
func (t *Trace) Slice(fromTS, toTS uint64) *Trace {
	out := &Trace{}
	for i := range t.Packets {
		if ts := t.Packets[i].TS; ts >= fromTS && ts < toTS {
			out.Packets = append(out.Packets, t.Packets[i])
		}
	}
	return out
}

// Retime rewrites timestamps so the trace starts at startTS and carries
// pps packets per second (used to replay workloads at a controlled rate).
func (t *Trace) Retime(startTS uint64, pps int) {
	if pps <= 0 {
		pps = 1000
	}
	step := uint64(1e6) / uint64(pps)
	for i := range t.Packets {
		t.Packets[i].TS = startTS + uint64(i)*step
	}
}

// Concat appends o's packets after t's, preserving each packet's offset
// within its half (o is shifted to start right after t ends).
func Concat(t, o *Trace) *Trace {
	out := &Trace{Packets: append([]Packet(nil), t.Packets...)}
	var base uint64
	if n := len(t.Packets); n > 0 {
		base = t.Packets[n-1].TS + 1
	}
	var first uint64
	if len(o.Packets) > 0 {
		first = o.Packets[0].TS
	}
	for i := range o.Packets {
		p := o.Packets[i].Clone()
		p.TS = base + (o.Packets[i].TS - first)
		out.Packets = append(out.Packets, p)
	}
	return out
}

// FieldValues returns the sorted distinct values of a field with counts.
// It gathers the field's column, sorts it with radixSort and counts runs;
// the answer is the same as counting into a map and sorting its keys.
func (t *Trace) FieldValues(field string) ([]uint64, []int) {
	get := SetterFor(field)
	col := make([]uint64, 0, len(t.Packets))
	for i := range t.Packets {
		if v, ok := get.get(&t.Packets[i]); ok {
			col = append(col, v)
		}
	}
	radixSort(col)
	distinct := 0
	for i := range col {
		if i == 0 || col[i] != col[i-1] {
			distinct++
		}
	}
	vals := make([]uint64, 0, distinct)
	cnts := make([]int, 0, distinct)
	for i := range col {
		if i == 0 || col[i] != col[i-1] {
			vals = append(vals, col[i])
			cnts = append(cnts, 0)
		}
		cnts[len(cnts)-1]++
	}
	return vals, cnts
}

// radixSort sorts vs in place with a least-significant-digit radix sort
// over bytes, skipping every byte on which all values agree: a 16-bit
// field costs two counting passes, a constant column none.
func radixSort(vs []uint64) {
	if len(vs) < 2 {
		return
	}
	var diff uint64
	for _, v := range vs {
		diff |= v ^ vs[0]
	}
	src, dst := vs, make([]uint64, len(vs))
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		var off [256]int
		for _, v := range src {
			off[byte(v>>shift)]++
		}
		sum := 0
		for d, c := range off {
			off[d] = sum
			sum += c
		}
		for _, v := range src {
			d := byte(v >> shift)
			dst[off[d]] = v
			off[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &vs[0] {
		copy(vs, src)
	}
}
