package testgen

import "repro/internal/trace"

// Workload amplifies an adversarial seed sequence into a sustained attack
// trace: the seed packets are replayed cyclically at the given rate for the
// given duration. State established by the seed prefix (inserted keys,
// counters past their thresholds) keeps the victim code blocks hot on every
// cycle, which is how the Figure 11 disruption phases are driven.
func Workload(seed []trace.Packet, seconds, pps int) *trace.Trace {
	out := &trace.Trace{}
	if len(seed) == 0 || seconds <= 0 || pps <= 0 {
		return out
	}
	total := seconds * pps
	step := uint64(1e6) / uint64(pps)
	ts := uint64(0)
	out.Packets = make([]trace.Packet, 0, total)
	for i := 0; i < total; i++ {
		p := seed[i%len(seed)].Clone()
		p.TS = ts
		ts += step
		out.Packets = append(out.Packets, p)
	}
	return out
}

// WorkloadFor amplifies a generated adversarial trace. Traces whose effect
// relies on fresh state (new sources, cold keys) rotate their fresh key
// fields every cycle so each replay establishes new state; traces built on
// CRC collisions are replayed verbatim (perturbing keys would break the
// collisions).
func WorkloadFor(adv *AdvTrace, seconds, pps int) *trace.Trace {
	out := &trace.Trace{}
	if adv == nil || len(adv.Packets) == 0 || seconds <= 0 || pps <= 0 {
		return out
	}
	if adv.HasCollisions || len(adv.FreshFields) == 0 {
		return Workload(adv.Packets, seconds, pps)
	}
	// Rotate the first fresh field across ALL packets of the cycle so
	// key-copy relationships (hits of the inserted key) stay intact.
	field := adv.FreshFields[0].Field
	total := seconds * pps
	step := uint64(1e6) / uint64(pps)
	ts := uint64(0)
	n := len(adv.Packets)
	out.Packets = make([]trace.Packet, 0, total)
	for i := 0; i < total; i++ {
		cycle := uint64(i / n)
		p := adv.Packets[i%n].Clone()
		if v, ok := p.Field(field); ok {
			p.SetField(field, v+cycle*7919)
		}
		p.TS = ts
		ts += step
		out.Packets = append(out.Packets, p)
	}
	return out
}
