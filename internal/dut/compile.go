package dut

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ir"
)

// The compiled form. New walks the program once and turns every statement,
// condition and expression into a closure over the switch, so Process pays
// no per-node type switch and no name lookup:
//
//   - registers and metadata live in flat slots of Switch.regs/meta, at
//     the indices ir.NewLayout assigns (the symbolic engine uses the same
//     layout);
//   - header fields read trace.Packet directly (Extra only for names
//     outside the fixed header set);
//   - each stateful op owns its key and index buffers;
//   - the target model owns its rules: New compiles the program as
//     target.Model.Lower holds it (clamped stores, installed table
//     entries), actions go through Model.Action, and stateful ops charge
//     Model.ChargeStage only on targets that set a stage budget.
//
// Undeclared registers get a slot and read 0 until assigned, undeclared
// arrays ignore reads and writes, and a missing match-action table is a
// no-op. An op on an undeclared hash table, Bloom filter or sketch panics
// when it runs.

type compiler struct {
	s     *Switch
	ports uint64
	lay   *ir.Layout

	arrays   map[string][]uint64
	tables   map[string]*hashTable
	blooms   map[string]*bloomFilter
	sketches map[string]*cmSketch
	applies  map[string]*tableOp
}

func compile(s *Switch) {
	prog, tgt := s.Prog, s.Cfg.Target
	c := &compiler{
		s:        s,
		ports:    uint64(s.Cfg.Ports),
		lay:      s.lay,
		arrays:   map[string][]uint64{},
		tables:   map[string]*hashTable{},
		blooms:   map[string]*bloomFilter{},
		sketches: map[string]*cmSketch{},
		applies:  map[string]*tableOp{},
	}
	s.regs = make([]uint64, len(s.lay.Regs))
	s.meta = make([]uint64, len(s.lay.Meta))
	for _, r := range prog.Regs {
		s.regs[c.lay.MustRegSlot(r.Name)] = r.Init
	}
	for _, a := range prog.RegArrays {
		c.arrays[a.Name] = make([]uint64, a.Size)
	}
	for _, h := range prog.HashTables {
		ht := &hashTable{seed: h.Seed, size: h.Size}
		if tgt.Exact() {
			ht.exact = map[string]int{}
		}
		c.tables[h.Name] = ht
	}
	for _, b := range prog.Blooms {
		c.blooms[b.Name] = &bloomFilter{bits: make([]bool, b.Bits), hashes: b.Hashes}
	}
	for _, sk := range prog.Sketches {
		c.sketches[sk.Name] = &cmSketch{rows: sk.Rows, cols: sk.Cols, counters: make([]uint64, sk.Rows*sk.Cols)}
	}

	s.root = c.stmt(prog.Root)
	if s.root == nil {
		s.root = func() {}
	}
	// Slot storage is sized once every access has declared its key width.
	for _, ht := range c.tables {
		if ht.exact == nil {
			ht.slots = make([]htSlot, ht.size)
			ht.keys = make([]uint64, ht.size*ht.stride)
		}
	}
}

// dest resolves an optional metadata destination; -1 means none.
func (c *compiler) dest(name string) int {
	if name == "" {
		return -1
	}
	return c.lay.MustMetaSlot(name)
}

// staged charges the target's stage budget before a stateful op; targets
// without a budget get the op unwrapped. A nil op still costs its stage.
// Over budget the op does not run: the packet takes the target's overflow
// action and the pass halts.
func (c *compiler) staged(op func()) func() {
	s, tgt := c.s, c.s.Cfg.Target
	if tgt.StageLimit() <= 0 {
		return op
	}
	return func() {
		kind, ok := tgt.ChargeStage(&s.stages)
		if ok {
			run(op)
			return
		}
		if kind == ir.ActToCPU {
			s.res.CPUPunts++
		} else {
			s.res.Dropped = true
		}
		s.halted = true
	}
}

// stmt compiles a statement; nil means it has no effect.
func (c *compiler) stmt(st ir.Stmt) func() {
	s := c.s
	switch t := st.(type) {
	case *ir.Block:
		return c.block(t)
	case *ir.If:
		cond, then, els := c.cond(t.Cond), c.stmt(t.Then), c.stmt(t.Else)
		switch {
		case then == nil && els == nil:
			return nil
		case els == nil:
			return func() {
				if cond() {
					then()
				}
			}
		case then == nil:
			return func() {
				if !cond() {
					els()
				}
			}
		}
		return func() {
			if cond() {
				then()
			} else {
				els()
			}
		}
	case *ir.Assign:
		e := c.expr(t.Expr)
		switch lv := t.Target.(type) {
		case ir.RegLV:
			i := c.lay.MustRegSlot(lv.Reg)
			return func() { s.regs[i] = e() }
		case ir.MetaLV:
			i := c.lay.MustMetaSlot(lv.Name)
			return func() { s.meta[i] = e() }
		}
		return nil
	case *ir.Action:
		return c.action(t)
	case *ir.HashAccess:
		return c.staged(c.hashAccess(t))
	case *ir.BloomOp:
		return c.staged(c.bloomOp(t))
	case *ir.SketchUpdate:
		o := c.sketchOp(t.Sketch, t.Key)
		if o == nil {
			return c.staged(unknown("sketch", t.Sketch))
		}
		if t.Inc != nil {
			o.inc = c.expr(t.Inc)
		}
		o.dest = c.dest(t.Dest)
		return c.staged(o.update)
	case *ir.SketchBranch:
		o := c.sketchOp(t.Sketch, t.Key)
		if o == nil {
			return c.staged(unknown("sketch", t.Sketch))
		}
		o.op, o.threshold = t.Op, t.Threshold
		o.onTrue, o.onFalse = c.stmt(t.OnTrue), c.stmt(t.OnFalse)
		return c.staged(o.branch)
	case *ir.ArrayRead:
		arr, index, dest := c.arrays[t.Array], c.expr(t.Index), c.lay.MustMetaSlot(t.Dest)
		return c.staged(func() {
			if i := index(); i < uint64(len(arr)) {
				s.meta[dest] = arr[i]
			}
		})
	case *ir.ArrayWrite:
		arr, index, value := c.arrays[t.Array], c.expr(t.Index), c.expr(t.Value)
		return c.staged(func() {
			if i := index(); i < uint64(len(arr)) {
				arr[i] = value()
			}
		})
	case *ir.TableApply:
		var op func()
		if o := c.table(t.Table); o != nil {
			op = o.run
		}
		return c.staged(op)
	}
	return nil
}

func (c *compiler) block(b *ir.Block) func() {
	s, id := c.s, b.ID
	var body []func()
	for _, st := range b.Stmts {
		if f := c.stmt(st); f != nil {
			body = append(body, f)
		}
	}
	// A block is entered only while the pass runs, so its first statement
	// needs no halt check.
	if len(body) == 0 {
		return func() {
			if h := s.VisitHook; h != nil {
				h(id)
			}
		}
	}
	first, rest := body[0], body[1:]
	return func() {
		if h := s.VisitHook; h != nil {
			h(id)
		}
		first()
		for _, f := range rest {
			if s.halted {
				return
			}
			f()
		}
	}
}

func (c *compiler) action(a *ir.Action) func() {
	r := &c.s.res
	var port func() uint64
	if a.Arg != nil {
		port = c.expr(a.Arg)
	}
	ports := c.ports
	switch c.s.Cfg.Target.Action(a.Kind) {
	case ir.ActForward:
		if port == nil {
			return func() { r.Forwarded = true }
		}
		return func() {
			r.Forwarded = true
			r.OutPort = port() % ports
		}
	case ir.ActDrop:
		s := c.s
		return func() {
			r.Dropped = true
			s.halted = true
		}
	case ir.ActToCPU:
		return func() { r.CPUPunts++ }
	case ir.ActDigest:
		return func() { r.Digests++ }
	case ir.ActRecirculate:
		return func() { r.Recircs++ }
	case ir.ActMirror:
		return func() { r.Mirrors++ }
	case ir.ActToBackend:
		if port == nil {
			return func() {
				r.BackendPkts++
				r.Forwarded = true
			}
		}
		return func() {
			r.BackendPkts++
			r.Forwarded = true
			r.OutPort = port() % ports
		}
	}
	return nil
}

// keyOp is the shared part of keyed state accesses: the key expressions
// and the buffer they are evaluated into.
type keyOp struct {
	s      *Switch
	keyFns []func() uint64
	key    []uint64
}

func (c *compiler) keyOp(key []ir.Expr) keyOp {
	o := keyOp{s: c.s, key: make([]uint64, len(key))}
	for _, k := range key {
		o.keyFns = append(o.keyFns, c.expr(k))
	}
	return o
}

func (o *keyOp) evalKey() {
	for i, k := range o.keyFns {
		o.key[i] = k()
	}
}

func run(f func()) {
	if f != nil {
		f()
	}
}

func unknown(kind, name string) func() {
	msg := fmt.Sprintf("dut: unknown %s %q", kind, name)
	return func() { panic(msg) }
}

type hashOp struct {
	keyOp
	ht                        *hashTable
	value                     func() uint64
	write, inc, evict         bool
	dest                      int
	fp                        []byte
	onEmpty, onHit, onCollide func()
}

func (c *compiler) hashAccess(h *ir.HashAccess) func() {
	ht := c.tables[h.Store]
	if ht == nil {
		return unknown("hash table", h.Store)
	}
	ht.stride = max(ht.stride, len(h.Key))
	o := &hashOp{
		keyOp: c.keyOp(h.Key), ht: ht,
		write: h.Write, inc: h.Inc, evict: h.Evict,
		dest: c.dest(h.Dest),
		fp:   make([]byte, 8*len(h.Key)),
	}
	o.value = zero
	if h.Value != nil {
		o.value = c.expr(h.Value)
	}
	o.onEmpty, o.onHit, o.onCollide = c.stmt(h.OnEmpty), c.stmt(h.OnHit), c.stmt(h.OnCollide)
	return o.run
}

func (o *hashOp) setDest(v uint64) {
	if o.dest >= 0 {
		o.s.meta[o.dest] = v
	}
}

func (o *hashOp) run() {
	o.evalKey()
	wv := o.value()
	ht := o.ht
	if ht.exact != nil {
		o.runExact(wv)
		return
	}
	idx := HashOf(ht.seed, o.key, uint64(ht.size))
	slot := &ht.slots[idx]
	switch {
	case !slot.occupied:
		v := uint64(0)
		if o.write {
			slot.occupied = true
			ht.setKey(idx, o.key)
			slot.val = wv
			v = wv
		}
		o.setDest(v)
		run(o.onEmpty)
	case ht.keyEqual(idx, o.key):
		o.hit(&slot.val, wv)
	default:
		o.setDest(slot.val) // the resident (foreign) value
		if o.write && o.evict {
			ht.setKey(idx, o.key)
			slot.val = wv
		}
		run(o.onCollide)
	}
}

// runExact is the map-backed (ExactState) access: lookups are keyed by the
// full key, so the collision arm never executes — an unseen key takes the
// empty arm, a seen key always hits.
func (o *hashOp) runExact(wv uint64) {
	for i, v := range o.key {
		binary.LittleEndian.PutUint64(o.fp[i*8:], v)
	}
	ht := o.ht
	i, ok := ht.exact[string(o.fp)]
	if !ok {
		v := uint64(0)
		if o.write {
			ht.exact[string(o.fp)] = len(ht.vals)
			ht.vals = append(ht.vals, wv)
			v = wv
		}
		o.setDest(v)
		run(o.onEmpty)
		return
	}
	o.hit(&ht.vals[i], wv)
}

// hit updates a matching entry. Reads observe the pre-write value
// (read-modify-write), except increments, whose consumers want the
// updated count.
func (o *hashOp) hit(val *uint64, wv uint64) {
	old := *val
	if o.write {
		if o.inc {
			*val += wv
		} else {
			*val = wv
		}
	}
	if o.write && o.inc {
		o.setDest(*val)
	} else {
		o.setDest(old)
	}
	run(o.onHit)
}

type bloomOp struct {
	keyOp
	bf            *bloomFilter
	shift         []uint32
	idx           []uint64
	insert        bool
	onHit, onMiss func()
}

func (c *compiler) bloomOp(b *ir.BloomOp) func() {
	bf := c.blooms[b.Filter]
	if bf == nil {
		return unknown("bloom filter", b.Filter)
	}
	o := &bloomOp{
		keyOp: c.keyOp(b.Key), bf: bf,
		shift:  seedShifts(bloomSeed, bf.hashes, len(b.Key)),
		idx:    make([]uint64, max(bf.hashes, 0)),
		insert: b.Insert,
		onHit:  c.stmt(b.OnHit), onMiss: c.stmt(b.OnMiss),
	}
	return o.run
}

func (o *bloomOp) run() {
	o.evalKey()
	bits := o.bf.bits
	h := crcOf(bloomSeed(0), o.key)
	hit := true
	for i := range o.idx {
		j := reduce(h^o.shift[i], uint64(len(bits)))
		o.idx[i] = j
		if !bits[j] {
			hit = false
		}
	}
	if o.insert {
		for _, j := range o.idx {
			bits[j] = true
		}
	}
	if hit {
		run(o.onHit)
	} else {
		run(o.onMiss)
	}
}

type sketchOp struct {
	keyOp
	sk    *cmSketch
	shift []uint32
	idx   []uint64
	inc   func() uint64
	dest  int

	op              ir.CmpOp
	threshold       uint64
	onTrue, onFalse func()
}

func (c *compiler) sketchOp(name string, key []ir.Expr) *sketchOp {
	sk := c.sketches[name]
	if sk == nil {
		return nil
	}
	return &sketchOp{
		keyOp: c.keyOp(key), sk: sk,
		shift: seedShifts(sketchSeed, sk.rows, len(key)),
		idx:   make([]uint64, sk.rows),
		dest:  -1,
	}
}

func (o *sketchOp) update() {
	o.evalKey()
	inc := uint64(1)
	if o.inc != nil {
		inc = o.inc()
	}
	o.sk.locate(o.key, o.shift, o.idx)
	for _, i := range o.idx {
		o.sk.counters[i] += inc
	}
	if o.dest >= 0 {
		o.s.meta[o.dest] = o.sk.estimate(o.idx)
	}
}

func (o *sketchOp) branch() {
	o.evalKey()
	o.sk.locate(o.key, o.shift, o.idx)
	if cmpU(o.op, o.sk.estimate(o.idx), o.threshold) {
		run(o.onTrue)
	} else {
		run(o.onFalse)
	}
}

type tableEntry struct {
	match  []ir.MatchSpec
	action func()
}

type tableOp struct {
	keyOp
	entries []tableEntry
	def     func()
}

// table compiles a match-action table once per switch (nil if the program
// has none by that name).
func (c *compiler) table(name string) *tableOp {
	if o, ok := c.applies[name]; ok {
		return o
	}
	tbl, ok := c.s.Prog.Table(name)
	if !ok {
		c.applies[name] = nil
		return nil
	}
	// Registered before its actions compile, so an action that applies
	// the table again links to this op.
	o := &tableOp{}
	c.applies[name] = o
	o.keyOp = c.keyOp(tbl.Keys)
	for _, e := range tbl.Entries {
		o.entries = append(o.entries, tableEntry{match: e.Match, action: c.stmt(e.Action)})
	}
	o.def = c.stmt(tbl.Default)
	return o
}

func (o *tableOp) run() {
	o.evalKey()
	for i := range o.entries {
		if e := &o.entries[i]; matchEntry(e.match, o.key) {
			run(e.action)
			return
		}
	}
	run(o.def)
}

func (c *compiler) cond(cd ir.Cond) func() bool {
	switch t := cd.(type) {
	case ir.Cmp:
		return c.cmp(t)
	case ir.Not:
		x := c.cond(t.C)
		return func() bool { return !x() }
	case ir.AndC:
		a, b := c.cond(t.A), c.cond(t.B)
		return func() bool { return a() && b() }
	case ir.OrC:
		a, b := c.cond(t.A), c.cond(t.B)
		return func() bool { return a() || b() }
	}
	return func() bool { return false }
}

func (c *compiler) cmp(t ir.Cmp) func() bool {
	a := c.expr(t.A)
	if k, ok := t.B.(ir.Const); ok {
		v := k.V
		switch t.Op {
		case ir.CmpEq:
			return func() bool { return a() == v }
		case ir.CmpNe:
			return func() bool { return a() != v }
		case ir.CmpLt:
			return func() bool { return a() < v }
		case ir.CmpLe:
			return func() bool { return a() <= v }
		case ir.CmpGt:
			return func() bool { return a() > v }
		case ir.CmpGe:
			return func() bool { return a() >= v }
		}
		return func() bool { return false }
	}
	b := c.expr(t.B)
	switch t.Op {
	case ir.CmpEq:
		return func() bool { return a() == b() }
	case ir.CmpNe:
		return func() bool { return a() != b() }
	case ir.CmpLt:
		return func() bool { return a() < b() }
	case ir.CmpLe:
		return func() bool { return a() <= b() }
	case ir.CmpGt:
		return func() bool { return a() > b() }
	case ir.CmpGe:
		return func() bool { return a() >= b() }
	}
	return func() bool { return false }
}

func zero() uint64 { return 0 }

func (c *compiler) expr(e ir.Expr) func() uint64 {
	s := c.s
	switch t := e.(type) {
	case ir.Const:
		v := t.V
		return func() uint64 { return v }
	case ir.FieldRef:
		return c.field(t.Name)
	case ir.RegRef:
		i := c.lay.MustRegSlot(t.Reg)
		return func() uint64 { return s.regs[i] }
	case ir.MetaRef:
		i := c.lay.MustMetaSlot(t.Name)
		return func() uint64 { return s.meta[i] }
	case ir.Bin:
		return c.bin(t)
	case ir.HashExpr:
		o := c.keyOp(t.Args)
		seed, mod := t.Seed, t.Mod
		return func() uint64 {
			o.evalKey()
			return HashOf(seed, o.key, mod)
		}
	}
	return zero
}

// field reads a header field straight off the packet in flight.
func (c *compiler) field(name string) func() uint64 {
	p := &c.s.pkt
	switch name {
	case "proto":
		return func() uint64 { return uint64(p.Proto) }
	case "src_ip":
		return func() uint64 { return uint64(p.SrcIP) }
	case "dst_ip":
		return func() uint64 { return uint64(p.DstIP) }
	case "src_port":
		return func() uint64 { return uint64(p.SrcPort) }
	case "dst_port":
		return func() uint64 { return uint64(p.DstPort) }
	case "tcp_flags":
		return func() uint64 { return uint64(p.TCPFlags) }
	case "seq":
		return func() uint64 { return uint64(p.Seq) }
	case "ack":
		return func() uint64 { return uint64(p.Ack) }
	case "ttl":
		return func() uint64 { return uint64(p.TTL) }
	case "pkt_len":
		return func() uint64 { return uint64(p.Len) }
	case "ipd":
		return func() uint64 { return uint64(p.IPD) }
	}
	return func() uint64 { return p.Extra[name] }
}

func (c *compiler) bin(t ir.Bin) func() uint64 {
	a := c.expr(t.A)
	if k, ok := t.B.(ir.Const); ok {
		v := k.V
		switch t.Op {
		case ir.OpAdd:
			return func() uint64 { return a() + v }
		case ir.OpSub:
			return func() uint64 { return a() - v }
		case ir.OpMul:
			return func() uint64 { return a() * v }
		case ir.OpAnd:
			return func() uint64 { return a() & v }
		case ir.OpOr:
			return func() uint64 { return a() | v }
		case ir.OpXor:
			return func() uint64 { return a() ^ v }
		case ir.OpMod:
			if v == 0 {
				return zero
			}
			return func() uint64 { return a() % v }
		case ir.OpShl:
			v &= 63
			return func() uint64 { return a() << v }
		case ir.OpShr:
			v &= 63
			return func() uint64 { return a() >> v }
		}
		return zero
	}
	b := c.expr(t.B)
	switch t.Op {
	case ir.OpAdd:
		return func() uint64 { return a() + b() }
	case ir.OpSub:
		return func() uint64 { return a() - b() }
	case ir.OpMul:
		return func() uint64 { return a() * b() }
	case ir.OpAnd:
		return func() uint64 { return a() & b() }
	case ir.OpOr:
		return func() uint64 { return a() | b() }
	case ir.OpXor:
		return func() uint64 { return a() ^ b() }
	case ir.OpMod:
		return func() uint64 {
			if d := b(); d != 0 {
				return a() % d
			}
			return 0
		}
	case ir.OpShl:
		return func() uint64 { return a() << (b() & 63) }
	case ir.OpShr:
		return func() uint64 { return a() >> (b() & 63) }
	}
	return zero
}
