package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// Pcap export: the paper's workload generator converts generated test
// sequences into pcap traces replayable against a DUT. WritePcap serializes
// a trace as a classic libpcap file (LINKTYPE_ETHERNET) with synthesized
// Ethernet/IPv4/TCP|UDP framing so standard tooling (tcpdump, tcpreplay,
// Wireshark) can read it. Program-specific Extra fields ride in the first
// bytes of the payload, length-prefixed, so ReadPcap round-trips them.

const (
	pcapMagic   = 0xa1b2c3d4 // microsecond-resolution, native byte order
	pcapVersion = 0x0002_0004
	linkEther   = 1
)

// WritePcap serializes the trace as a libpcap capture.
func (t *Trace) WritePcap(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := [6]uint32{pcapMagic, pcapVersion, 0, 0, 65535, linkEther}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for i := range t.Packets {
		frame := buildFrame(&t.Packets[i])
		rec := [4]uint32{
			uint32(t.Packets[i].TS / 1e6), // seconds
			uint32(t.Packets[i].TS % 1e6), // microseconds
			uint32(len(frame)),            // captured length
			uint32(len(frame)),            // original length
		}
		for _, v := range rec {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WritePcapFile writes the trace to a .pcap file.
func (t *Trace) WritePcapFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WritePcap(f); err != nil {
		return err
	}
	return f.Close()
}

// buildFrame synthesizes Ethernet + IPv4 + TCP/UDP bytes for a packet.
// Payload layout: extraCount(u16), then per extra: nameLen(u16), name,
// value(u64); padding to reach the packet's declared length.
func buildFrame(p *Packet) []byte {
	const (
		etherLen = 14
		ipLen    = 20
	)
	l4len := 20 // TCP
	if p.Proto == ProtoUDP {
		l4len = 8
	}

	payload := encodeExtras(p)
	total := etherLen + ipLen + l4len + len(payload)
	if int(p.Len) > total {
		payload = append(payload, make([]byte, int(p.Len)-total)...)
		total = int(p.Len)
	}

	frame := make([]byte, total)
	// Ethernet: synthetic MACs derived from the IPs, EtherType IPv4.
	copy(frame[0:6], []byte{0x02, 0, byte(p.DstIP >> 24), byte(p.DstIP >> 16), byte(p.DstIP >> 8), byte(p.DstIP)})
	copy(frame[6:12], []byte{0x02, 0, byte(p.SrcIP >> 24), byte(p.SrcIP >> 16), byte(p.SrcIP >> 8), byte(p.SrcIP)})
	binary.BigEndian.PutUint16(frame[12:14], 0x0800)

	ip := frame[etherLen:]
	ip[0] = 0x45 // v4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(total-etherLen))
	ip[8] = p.TTL
	ip[9] = p.Proto
	binary.BigEndian.PutUint32(ip[12:16], p.SrcIP)
	binary.BigEndian.PutUint32(ip[16:20], p.DstIP)
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:ipLen]))

	l4 := ip[ipLen:]
	binary.BigEndian.PutUint16(l4[0:2], p.SrcPort)
	binary.BigEndian.PutUint16(l4[2:4], p.DstPort)
	if p.Proto == ProtoUDP {
		binary.BigEndian.PutUint16(l4[4:6], uint16(l4len+len(payload)))
		copy(l4[8:], payload)
	} else {
		binary.BigEndian.PutUint32(l4[4:8], p.Seq)
		binary.BigEndian.PutUint32(l4[8:12], p.Ack)
		l4[12] = 5 << 4 // data offset
		l4[13] = p.TCPFlags
		copy(l4[20:], payload)
	}
	return frame
}

func encodeExtras(p *Packet) []byte {
	names := make([]string, 0, len(p.Extra)+1)
	for k := range p.Extra {
		names = append(names, k)
	}
	sort.Strings(names)
	// IPD is carried as a pseudo-extra so the round trip preserves it.
	out := make([]byte, 2)
	count := len(names) + 1
	binary.LittleEndian.PutUint16(out, uint16(count))
	emit := func(name string, val uint64) {
		var nl [2]byte
		binary.LittleEndian.PutUint16(nl[:], uint16(len(name)))
		out = append(out, nl[:]...)
		out = append(out, name...)
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], val)
		out = append(out, v[:]...)
	}
	emit("__ipd", uint64(p.IPD))
	for _, n := range names {
		emit(n, p.Extra[n])
	}
	return out
}

func ipChecksum(b []byte) uint16 {
	sum := uint32(0)
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ReadPcap parses a libpcap capture produced by WritePcap (or any
// Ethernet/IPv4 capture; foreign payloads simply carry no Extra fields).
func ReadPcap(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var hdr [6]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("trace: pcap header: %w", err)
		}
	}
	if hdr[0] != pcapMagic {
		return nil, fmt.Errorf("trace: bad pcap magic %#x", hdr[0])
	}
	if hdr[5] != linkEther {
		return nil, fmt.Errorf("trace: unsupported link type %d", hdr[5])
	}
	out := &Trace{}
	for {
		var rec [4]uint32
		if err := binary.Read(br, binary.LittleEndian, &rec[0]); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		for i := 1; i < 4; i++ {
			if err := binary.Read(br, binary.LittleEndian, &rec[i]); err != nil {
				return nil, err
			}
		}
		frame := make([]byte, rec[2])
		if _, err := io.ReadFull(br, frame); err != nil {
			return nil, err
		}
		p, ok := parseFrame(frame)
		if !ok {
			continue
		}
		p.TS = uint64(rec[0])*1e6 + uint64(rec[1])
		out.Packets = append(out.Packets, p)
	}
}

// ReadPcapFile loads a pcap capture from disk.
func ReadPcapFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPcap(f)
}

func parseFrame(frame []byte) (Packet, bool) {
	var p Packet
	if len(frame) < 14+20 || binary.BigEndian.Uint16(frame[12:14]) != 0x0800 {
		return p, false
	}
	ip := frame[14:]
	ihl := int(ip[0]&0xf) * 4
	if len(ip) < ihl+8 {
		return p, false
	}
	p.Len = uint16(len(frame))
	p.TTL = ip[8]
	p.Proto = ip[9]
	p.SrcIP = binary.BigEndian.Uint32(ip[12:16])
	p.DstIP = binary.BigEndian.Uint32(ip[16:20])
	l4 := ip[ihl:]
	p.SrcPort = binary.BigEndian.Uint16(l4[0:2])
	p.DstPort = binary.BigEndian.Uint16(l4[2:4])
	var payload []byte
	if p.Proto == ProtoUDP {
		if len(l4) >= 8 {
			payload = l4[8:]
		}
	} else if p.Proto == ProtoTCP && len(l4) >= 20 {
		p.Seq = binary.BigEndian.Uint32(l4[4:8])
		p.Ack = binary.BigEndian.Uint32(l4[8:12])
		p.TCPFlags = l4[13]
		off := int(l4[12]>>4) * 4
		if len(l4) >= off {
			payload = l4[off:]
		}
	}
	decodeExtras(&p, payload)
	return p, true
}

func decodeExtras(p *Packet, payload []byte) {
	if len(payload) < 2 {
		return
	}
	count := int(binary.LittleEndian.Uint16(payload))
	pos := 2
	for i := 0; i < count; i++ {
		if pos+2 > len(payload) {
			return
		}
		nl := int(binary.LittleEndian.Uint16(payload[pos:]))
		pos += 2
		if nl == 0 || nl > 64 || pos+nl+8 > len(payload) {
			return
		}
		name := string(payload[pos : pos+nl])
		pos += nl
		val := binary.LittleEndian.Uint64(payload[pos:])
		pos += 8
		if name == "__ipd" {
			p.IPD = uint16(val)
		} else {
			p.SetField(name, val)
		}
	}
}
