// Package dut implements the backtesting engine: a software switch that
// executes IR programs concretely over packet traces (the repository's
// bmv2/Tofino stand-in). It maintains real register state, real CRC hash
// tables, Bloom filters and count-min sketches, counts per-port traffic and
// control-plane interactions, and produces per-second time series — the
// measurements behind paper Figures 10 and 11.
//
// New compiles the program once, against the target model, into chained
// closures over slot-indexed state (see compile.go); Process then runs a
// packet without allocating. The same switch doubles as the concrete
// executor for path sampling (the profiler's SampPaths phase and the ps
// baseline) via VisitHook.
package dut

import (
	"hash/crc32"

	"repro/internal/ir"
	"repro/internal/target"
	"repro/internal/trace"
)

// Config tunes the switch.
type Config struct {
	// Ports is the number of egress ports (default 8).
	Ports int
	// Target is the device model the switch enforces — the same model the
	// symbolic engine asks, so concrete replays and profiles describe the
	// same machine. Nil is the idealized switch.
	Target *target.Model
}

func (c Config) withDefaults() Config {
	if c.Ports == 0 {
		c.Ports = 8
	}
	return c
}

// ieee8 holds slicing-by-8 tables for the CRC-32/IEEE polynomial, derived
// from crc32.IEEETable, so HashOf can fold a whole 64-bit word per step.
var ieee8 = func() (t [8][256]uint32) {
	t[0] = *crc32.IEEETable
	for i := range t[0] {
		c := t[0][i]
		for j := 1; j < 8; j++ {
			c = t[0][c&0xff] ^ c>>8
			t[j][i] = c
		}
	}
	return t
}()

// HashOf is the concrete CRC hash shared by the switch and the adversarial
// test generator (which searches it for collisions): CRC-32/IEEE seeded
// with seed over the little-endian bytes of vals, reduced modulo mod
// (mod 0 means no reduction). It equals crc32.Update over those bytes but
// streams the words through the register and never allocates.
func HashOf(seed uint32, vals []uint64, mod uint64) uint64 {
	return reduce(crcOf(seed, vals), mod)
}

// crcOf is HashOf before the reduction.
func crcOf(seed uint32, vals []uint64) uint32 {
	crc := ^seed
	for _, v := range vals {
		crc = crcWord(crc, v)
	}
	return ^crc
}

// crcWord folds one little-endian 64-bit word into a raw CRC register.
func crcWord(crc uint32, v uint64) uint32 {
	crc ^= uint32(v)
	hi := uint32(v >> 32)
	return ieee8[0][hi>>24] ^ ieee8[1][hi>>16&0xff] ^ ieee8[2][hi>>8&0xff] ^ ieee8[3][hi&0xff] ^
		ieee8[4][crc>>24] ^ ieee8[5][crc>>16&0xff] ^ ieee8[6][crc>>8&0xff] ^ ieee8[7][crc&0xff]
}

func reduce(h uint32, mod uint64) uint64 {
	if mod == 0 {
		return uint64(h)
	}
	return uint64(h) % mod
}

// seedShift returns crcOf(a, key) ^ crcOf(b, key) for every key of n
// words. The CRC register update is linear, so one key's hashes under
// different seeds differ by a constant of the seeds and the key length:
// a Bloom filter's or sketch's k hashes cost one CRC pass plus k XORs.
func seedShift(a, b uint32, n int) uint32 {
	c := a ^ b
	for ; n > 0; n-- {
		c = crcWord(c, 0)
	}
	return c
}

// seedShifts is seedShift from seed(0) to seed(i) for i < k.
func seedShifts(seed func(int) uint32, k, n int) []uint32 {
	out := make([]uint32, max(k, 0))
	for i := range out {
		out[i] = seedShift(seed(i), seed(0), n)
	}
	return out
}

// Result reports what happened to one packet.
type Result struct {
	Forwarded   bool
	OutPort     uint64
	Dropped     bool
	CPUPunts    int
	Digests     int
	Recircs     int
	Mirrors     int
	BackendPkts int
}

// Switch is a concrete switch instance with live state.
type Switch struct {
	Prog *ir.Program
	Cfg  Config

	// VisitHook, when set, is called for every CFG block entered.
	VisitHook func(nodeID int)

	processed uint64
	root      func()

	// State, addressed by the program's slot layout.
	lay  *ir.Layout
	regs []uint64
	meta []uint64

	// The packet in flight: a copy of the caller's packet, its result, and
	// whether a drop or a stage overflow has halted its pass.
	pkt    trace.Packet
	res    Result
	halted bool
	// stages counts the packet's stateful operations against the target's
	// stage budget; stateful ops charge it only on targets that set one
	// (see compiler.staged).
	stages int
}

// New lowers a program to the configured target, compiles it, and returns
// a switch with fresh state (Switch.Prog is the lowered program).
func New(prog *ir.Program, cfg Config) *Switch {
	s := &Switch{Prog: cfg.Target.Lower(prog), Cfg: cfg.withDefaults()}
	s.lay = ir.NewLayout(s.Prog)
	compile(s)
	return s
}

// Reg reads a register (for tests and inspection); unknown names read 0.
func (s *Switch) Reg(name string) uint64 {
	if i, ok := s.lay.RegSlot(name); ok {
		return s.regs[i]
	}
	return 0
}

// Processed returns the number of packets processed.
func (s *Switch) Processed() uint64 { return s.processed }

// Process runs one packet through the pipeline.
func (s *Switch) Process(p *trace.Packet) Result {
	s.run(p)
	return s.res
}

// run processes a packet, leaving its outcome in s.res.
func (s *Switch) run(p *trace.Packet) {
	s.processed++
	s.pkt = *p
	s.res = Result{}
	s.halted = false
	s.stages = 0
	clear(s.meta)
	s.root()
}

// hashTable is a CRC hash table: slot i holds its key in
// keys[i*stride:][:klen] and its value in val. Exact (map-backed) tables
// index vals by the key's byte fingerprint instead.
type hashTable struct {
	seed   uint32
	size   int
	stride int
	slots  []htSlot
	keys   []uint64

	exact map[string]int
	vals  []uint64
}

type htSlot struct {
	occupied bool
	klen     int32
	val      uint64
}

func (t *hashTable) keyEqual(i uint64, key []uint64) bool {
	if int(t.slots[i].klen) != len(key) {
		return false
	}
	stored := t.keys[int(i)*t.stride:]
	for j, v := range key {
		if stored[j] != v {
			return false
		}
	}
	return true
}

// setKey copies key out of the caller's reusable buffer into slot i.
func (t *hashTable) setKey(i uint64, key []uint64) {
	t.slots[i].klen = int32(len(key))
	copy(t.keys[int(i)*t.stride:], key)
}

type bloomFilter struct {
	bits   []bool
	hashes int
}

type cmSketch struct {
	rows, cols int
	counters   []uint64
}

// bloomSeed and sketchSeed give each Bloom hash function and sketch row
// its own CRC seed.
func bloomSeed(i int) uint32  { return uint32(i)*0x9e3779b9 + 1 }
func sketchSeed(r int) uint32 { return uint32(r)*0x85ebca6b + 7 }

// locate fills idx with the key's counter index in every row, given each
// row's seedShift from row 0 for this key length.
func (sk *cmSketch) locate(key []uint64, shift []uint32, idx []uint64) {
	h := crcOf(sketchSeed(0), key)
	for r := range idx {
		idx[r] = uint64(r*sk.cols) + reduce(h^shift[r], uint64(sk.cols))
	}
}

// estimate is the count-min estimate over the located counters.
func (sk *cmSketch) estimate(idx []uint64) uint64 {
	est := ^uint64(0)
	for _, i := range idx {
		if v := sk.counters[i]; v < est {
			est = v
		}
	}
	if est == ^uint64(0) {
		return 0
	}
	return est
}

func matchEntry(specs []ir.MatchSpec, keys []uint64) bool {
	for i, sp := range specs {
		switch sp.Kind {
		case ir.MatchExact:
			if keys[i] != sp.Lo {
				return false
			}
		case ir.MatchRange:
			if keys[i] < sp.Lo || keys[i] > sp.Hi {
				return false
			}
		case ir.MatchWildcard:
		}
	}
	return true
}

func cmpU(op ir.CmpOp, a, b uint64) bool {
	switch op {
	case ir.CmpEq:
		return a == b
	case ir.CmpNe:
		return a != b
	case ir.CmpLt:
		return a < b
	case ir.CmpLe:
		return a <= b
	case ir.CmpGt:
		return a > b
	case ir.CmpGe:
		return a >= b
	}
	return false
}
