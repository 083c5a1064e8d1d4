// Package sym implements the symbolic execution engine P4wn builds on: it
// interprets IR programs over a sequence of symbolic packets, forking one
// path per branch outcome, accumulating path constraints over header-field
// variables, and (in greybox mode) folding approximate data structures into
// probabilistic data stores whose accesses fork a constant number of paths.
//
// The engine has two personalities:
//
//   - P4wn mode (Options.Greybox true, Options.Merge true): approximate
//     structures use internal/greybox, and paths whose persistent state is
//     fully concrete are coalesced between packets, folding their path
//     condition probability into a scalar. This is what keeps stateful
//     exploration polynomial.
//
//   - Baseline mode (Greybox false, Merge false): a KLEE-like exhaustive
//     search. Hash tables, Bloom filters and sketches are materialized as
//     symbolic arrays whose accesses fork per known slot, and whose state
//     must be cloned on every fork — cost that grows with the structure
//     size, reproducing the baseline scaling walls of paper Figure 6.
//
// A Path keeps registers, metadata and block visits in slices indexed by
// the slot layout NewEngine computes once from the lowered program
// (ir.NewLayout, the layout the concrete switch in internal/dut compiles
// against): a fork copies two short arrays instead of rebuilding maps, and
// starting the next packet clears the metadata and visit bits in place.
package sym

import (
	"fmt"

	"repro/internal/greybox"
	"repro/internal/solver"
)

// ValueKind discriminates Value representations.
type ValueKind int

const (
	// VConcrete is a known constant.
	VConcrete ValueKind = iota
	// VLin is a linear symbolic expression over packet-field variables.
	VLin
	// VDist is a value known only as a probability distribution — the
	// result of reading a greybox data store (e.g. a flow counter).
	VDist
)

// Value is the symbolic engine's runtime value.
type Value struct {
	Kind ValueKind
	C    uint64
	E    solver.LinExpr
	D    *greybox.ValueDist
}

// ConcreteVal wraps a constant.
func ConcreteVal(v uint64) Value { return Value{Kind: VConcrete, C: v} }

// LinVal wraps a linear expression (collapsing constants).
func LinVal(e solver.LinExpr) Value {
	if e.IsConst() {
		k := e.K
		if k < 0 {
			k = 0
		}
		return ConcreteVal(uint64(k))
	}
	return Value{Kind: VLin, E: e}
}

// DistVal wraps a value distribution.
func DistVal(d *greybox.ValueDist) Value { return Value{Kind: VDist, D: d} }

// IsConcrete reports whether the value is a known constant.
func (v Value) IsConcrete() bool { return v.Kind == VConcrete }

// Lin returns the value as a linear expression (concrete values become
// constants); ok is false for distribution values.
func (v Value) Lin() (solver.LinExpr, bool) {
	switch v.Kind {
	case VConcrete:
		return solver.ConstExpr(int64(v.C)), true
	case VLin:
		return v.E, true
	}
	return solver.LinExpr{}, false
}

func (v Value) String() string {
	switch v.Kind {
	case VConcrete:
		return fmt.Sprintf("%d", v.C)
	case VLin:
		return v.E.String()
	case VDist:
		return v.D.String()
	}
	return "?"
}

// stateKey renders the value canonically for path merging; only values that
// are state-equal produce equal keys.
func (v Value) stateKey() string {
	switch v.Kind {
	case VConcrete:
		return fmt.Sprintf("c%d", v.C)
	case VLin:
		return "e" + v.E.String()
	case VDist:
		return "d" + v.D.Key()
	}
	return "?"
}

// mergeable reports whether a path holding this value in persistent state
// may be coalesced with an identically-keyed path: linear expressions
// reference past packet fields whose constraints would be lost.
func (v Value) mergeable() bool { return v.Kind != VLin }
