package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// Binary trace format (the repository's pcap stand-in):
//
//	magic   [8]byte  "P4WNTRC1"
//	count   uint32
//	per packet:
//	  fixed fields in declaration order (little endian)
//	  extraCount uint16, then per extra: nameLen uint16, name, value uint64
const magic = "P4WNTRC1"

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(t.Packets))); err != nil {
		return err
	}
	for i := range t.Packets {
		p := &t.Packets[i]
		fixed := []interface{}{
			p.TS, p.Proto, p.SrcIP, p.DstIP, p.SrcPort, p.DstPort,
			p.TCPFlags, p.Seq, p.Ack, p.TTL, p.Len, p.IPD,
		}
		for _, f := range fixed {
			if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(p.Extra))); err != nil {
			return err
		}
		// Deterministic order for reproducible files.
		names := make([]string, 0, len(p.Extra))
		for k := range p.Extra {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := binary.Write(bw, binary.LittleEndian, uint16(len(name))); err != nil {
				return err
			}
			if _, err := bw.WriteString(name); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, p.Extra[name]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a trace.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	t := &Trace{Packets: make([]Packet, 0, count)}
	for i := uint32(0); i < count; i++ {
		var p Packet
		fixed := []interface{}{
			&p.TS, &p.Proto, &p.SrcIP, &p.DstIP, &p.SrcPort, &p.DstPort,
			&p.TCPFlags, &p.Seq, &p.Ack, &p.TTL, &p.Len, &p.IPD,
		}
		for _, f := range fixed {
			if err := binary.Read(br, binary.LittleEndian, f); err != nil {
				return nil, fmt.Errorf("trace: packet %d: %w", i, err)
			}
		}
		var nExtra uint16
		if err := binary.Read(br, binary.LittleEndian, &nExtra); err != nil {
			return nil, fmt.Errorf("trace: packet %d extras: %w", i, err)
		}
		if nExtra > 0 {
			p.Extra = make(map[string]uint64, nExtra)
		}
		for j := uint16(0); j < nExtra; j++ {
			var nameLen uint16
			if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
				return nil, err
			}
			name := make([]byte, nameLen)
			if _, err := io.ReadFull(br, name); err != nil {
				return nil, err
			}
			var val uint64
			if err := binary.Read(br, binary.LittleEndian, &val); err != nil {
				return nil, err
			}
			p.Extra[string(name)] = val
		}
		t.Packets = append(t.Packets, p)
	}
	return t, nil
}

// WriteFile writes a trace to disk.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile loads a trace from disk.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
