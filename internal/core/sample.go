package core

import (
	"context"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/dut"
	"repro/internal/ir"
	"repro/internal/par"
	"repro/internal/target"
	"repro/internal/trace"
)

// samplePaths is the SampPaths phase of Figure 3: when symbolic exploration
// has not converged within its budget, the profiler estimates the remaining
// blocks by concrete informed sampling — packets drawn from the traffic
// oracle's marginals are streamed through the concrete interpreter, and
// per-packet block hit rates become the probability estimates. The
// resolution floor is 1/SampleBudget, which is exactly the coarse
// granularity the paper's Figure 8 demonstrates for the ps baseline.
//
// "Informed" part: the sampler honors the oracle's pair-equality answer by
// replaying the previous packet (a retransmission) with the reported
// probability, so flow-correlated branches are reachable at realistic rates.
//
// The field samplers are built once per run, the fields' oracle queries
// fanned out over the pool, and every chunk draws from them. The budget is
// partitioned into fixed-size chunks distributed across the pool; each
// chunk runs its own deterministically seeded RNG, packet sampler, and
// switch, and the integer hit counts are summed. Results therefore depend
// only on (Seed, SampleBudget), never on the worker count. The pair-equality
// retransmission correlation spans packets within one chunk only (documented
// approximation: at 1024 packets per chunk the boundary effect on hit rates
// is far below the sampler's 1/SampleBudget resolution floor).
func samplePaths(ctx context.Context, progIn *ir.Program, oracle dist.Oracle, opt Options, tgt *target.Model, pool *par.Pool) map[int]float64 {
	const chunkSize = 1024
	nChunks := (opt.SampleBudget + chunkSize - 1) / chunkSize
	if nChunks == 0 {
		return nil
	}
	model, err := newPacketModel(ctx, progIn, oracle, pool)
	if err != nil {
		return nil
	}
	numNodes := len(progIn.Nodes())
	chunkCounts := make([][]int, nChunks)
	chunkDrawn := make([]int, nChunks)
	_ = pool.Run(ctx, nChunks, func(ci int) error {
		n := chunkSize
		if rem := opt.SampleBudget - ci*chunkSize; rem < n {
			n = rem
		}
		// The chunk seed mixes the chunk index with an odd constant so
		// neighboring chunks do not walk correlated rand.Source streams.
		rng := rand.New(rand.NewSource(opt.Seed + 1 + int64(ci)*0x5851f42d4c957f2d))
		gen := model.sampler(rng)
		sw := dut.New(progIn, dut.Config{Target: tgt})
		// A block counts once per packet: seen[id] holds the epoch (packet
		// number + 1) of the last packet that entered it.
		seen := make([]uint32, numNodes)
		counts := make([]int, numNodes)
		var epoch uint32
		sw.VisitHook = func(id int) {
			if seen[id] != epoch {
				seen[id] = epoch
				counts[id]++
			}
		}
		drawn := 0
		for i := 0; i < n; i++ {
			if i%512 == 0 && ctx.Err() != nil {
				break
			}
			pkt := gen.Next()
			epoch++
			sw.Process(&pkt)
			drawn++
		}
		chunkCounts[ci] = counts
		chunkDrawn[ci] = drawn
		return nil
	})
	counts := make([]int, numNodes)
	drawn := 0
	for ci := range chunkCounts {
		for id, c := range chunkCounts[ci] {
			counts[id] += c
		}
		drawn += chunkDrawn[ci]
	}
	if drawn == 0 {
		return nil
	}
	out := map[int]float64{}
	for id, c := range counts {
		if c == 0 {
			continue
		}
		// Normalize by packets actually processed so an early ctx cut does
		// not deflate every estimate.
		out[id] = float64(c) / float64(drawn)
	}
	return out
}

// packetModel is what every PacketSampler of one program and oracle
// shares: each header field's setter and the sampler of its marginal, and
// the oracle's pair-equality answer for seq. Samplers are read-only, so
// concurrent chunks draw from one model.
type packetModel struct {
	setters []trace.Setter
	dists   []dist.Sampler
	pairEq  float64
}

// newPacketModel asks the oracle for every field's marginal (uniform over
// the field's width when it has no answer), one field per pool task. It
// fails only when ctx ends before every field is done.
func newPacketModel(ctx context.Context, progIn *ir.Program, oracle dist.Oracle, pool *par.Pool) (*packetModel, error) {
	fields := progIn.Fields
	m := &packetModel{setters: make([]trace.Setter, len(fields)), dists: make([]dist.Sampler, len(fields))}
	err := pool.Run(ctx, len(fields), func(i int) error {
		m.setters[i] = trace.SetterFor(fields[i].Name)
		d, ok := oracle.FieldDist(fields[i].Name)
		if !ok {
			d = dist.Uniform(fields[i].Bits)
		}
		m.dists[i] = d.Sampler()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if pe, ok := oracle.PairEqualProb("seq"); ok {
		m.pairEq = pe
	}
	return m, nil
}

// sampler starts a packet stream over the model, drawing from rng.
func (m *packetModel) sampler(rng *rand.Rand) *PacketSampler {
	return &PacketSampler{packetModel: m, rng: rng}
}

// PacketSampler draws concrete packets from a traffic oracle's marginal
// distributions (uniform per field when the oracle has no answer).
type PacketSampler struct {
	*packetModel
	rng     *rand.Rand
	havePkt bool
	last    trace.Packet
	ts      uint64
}

// NewPacketSampler builds a sampler for a program's header vocabulary.
func NewPacketSampler(progIn *ir.Program, oracle dist.Oracle, rng *rand.Rand) *PacketSampler {
	m, _ := newPacketModel(context.Background(), progIn, oracle, nil)
	return m.sampler(rng)
}

// Next draws one packet.
func (s *PacketSampler) Next() trace.Packet {
	s.ts += 1000
	if s.havePkt && s.pairEq > 0 && s.rng.Float64() < s.pairEq {
		// Retransmission: repeat the previous packet.
		p := s.last.Clone()
		p.TS = s.ts
		return p
	}
	var p trace.Packet
	p.TS = s.ts
	for i, set := range s.setters {
		set.Set(&p, s.dists[i].Sample(s.rng))
	}
	s.last = p
	s.havePkt = true
	return p
}
