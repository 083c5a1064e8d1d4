// Package solver implements an SMT-lite decision procedure for the
// constraint fragment emitted by data-plane programs: conjunctions of
// comparisons over bounded unsigned header fields, where each side is a
// linear expression (in practice: field-vs-constant, field-vs-field with an
// offset, and the occasional multi-term expression).
//
// It plays the role of Z3 in the paper's prototype. The normalized System it
// produces — interval bounds, equality classes with offsets, difference and
// disequality constraints — is also the input to the model counter
// (internal/mc), which plays the role of LattE.
//
// Build, Feasible and FeasibleFrom share one normalization kernel over
// index-based local state: variables get dense indices, and the union-find,
// root intervals, holes and difference constraints live in slices with
// inline backing arrays. Feasible and FeasibleFrom, the symbolic engine's
// pruning checks, return the kernel's verdict without building a System,
// so a check on a small system allocates nothing. Build runs the same
// kernel and exports its state as the map-based System.
package solver

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ir"
)

// Var identifies one symbolic variable: header field Field of the Pkt-th
// packet in the symbolic sequence. Havoc variables (fresh unknowns created
// for hash outputs) use synthetic field names and carry explicit domains in
// the Space.
type Var struct {
	Pkt   int
	Field string
}

func (v Var) String() string { return "p" + strconv.Itoa(v.Pkt) + "." + v.Field }

// Less orders variables deterministically.
func (v Var) Less(o Var) bool {
	if v.Pkt != o.Pkt {
		return v.Pkt < o.Pkt
	}
	return v.Field < o.Field
}

// Interval is an inclusive unsigned range. An empty interval has Lo > Hi.
type Interval struct{ Lo, Hi uint64 }

// FullInterval returns the domain of a width-bit field.
func FullInterval(bits int) Interval {
	if bits >= 64 {
		return Interval{0, math.MaxUint64}
	}
	return Interval{0, (uint64(1) << uint(bits)) - 1}
}

// Empty reports whether the interval contains no values.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Size returns the number of values in the interval as a float64.
func (iv Interval) Size() float64 {
	if iv.Empty() {
		return 0
	}
	return float64(iv.Hi-iv.Lo) + 1
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v uint64) bool { return v >= iv.Lo && v <= iv.Hi }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	r := iv
	if o.Lo > r.Lo {
		r.Lo = o.Lo
	}
	if o.Hi < r.Hi {
		r.Hi = o.Hi
	}
	return r
}

// Shift returns the interval translated by the signed offset, clamped to
// [0, MaxUint64]; an interval shifted entirely out of range becomes empty.
func (iv Interval) Shift(off int64) Interval {
	if iv.Empty() {
		return iv
	}
	if off >= 0 {
		u := uint64(off)
		if iv.Lo > math.MaxUint64-u { // fully overflows
			return Interval{1, 0}
		}
		hi := uint64(math.MaxUint64)
		if iv.Hi <= math.MaxUint64-u {
			hi = iv.Hi + u
		}
		return Interval{iv.Lo + u, hi}
	}
	u := uint64(-off)
	if iv.Hi < u {
		return Interval{1, 0}
	}
	lo := uint64(0)
	if iv.Lo >= u {
		lo = iv.Lo - u
	}
	return Interval{lo, iv.Hi - u}
}

// Term is one summand of a linear expression.
type Term struct {
	Var  Var
	Coef int64
}

// LinExpr is a canonical linear expression: sorted unique vars with nonzero
// coefficients plus a constant.
type LinExpr struct {
	Terms []Term
	K     int64
}

// ConstExpr makes a constant linear expression.
func ConstExpr(k int64) LinExpr { return LinExpr{K: k} }

// VarExpr makes a single-variable linear expression.
func VarExpr(v Var) LinExpr { return LinExpr{Terms: []Term{{Var: v, Coef: 1}}} }

// IsConst reports whether the expression has no variables.
func (e LinExpr) IsConst() bool { return len(e.Terms) == 0 }

// Add returns e + o in canonical form.
func (e LinExpr) Add(o LinExpr) LinExpr {
	out := LinExpr{K: e.K + o.K}
	out.Terms = append(append([]Term(nil), e.Terms...), o.Terms...)
	return out.canon()
}

// Sub returns e - o in canonical form. Both term lists are canonical, so
// one merge pass builds the difference: no sort and a single allocation.
// The integer arithmetic wraps exactly as e.Add(o.Scale(-1)) does.
func (e LinExpr) Sub(o LinExpr) LinExpr {
	out := LinExpr{K: e.K - o.K}
	if n := len(e.Terms) + len(o.Terms); n > 0 {
		out.Terms = make([]Term, 0, n)
	}
	i, j := 0, 0
	for i < len(e.Terms) && j < len(o.Terms) {
		a, b := e.Terms[i], o.Terms[j]
		switch c := cmpVar(a.Var, b.Var); {
		case c < 0:
			out.Terms = append(out.Terms, a)
			i++
		case c > 0:
			out.Terms = append(out.Terms, Term{Var: b.Var, Coef: -b.Coef})
			j++
		default:
			if k := a.Coef - b.Coef; k != 0 {
				out.Terms = append(out.Terms, Term{Var: a.Var, Coef: k})
			}
			i++
			j++
		}
	}
	out.Terms = append(out.Terms, e.Terms[i:]...)
	for _, b := range o.Terms[j:] {
		out.Terms = append(out.Terms, Term{Var: b.Var, Coef: -b.Coef})
	}
	return out
}

// Scale returns c*e.
func (e LinExpr) Scale(c int64) LinExpr {
	out := LinExpr{K: e.K * c, Terms: make([]Term, 0, len(e.Terms))}
	for _, t := range e.Terms {
		out.Terms = append(out.Terms, Term{Var: t.Var, Coef: t.Coef * c})
	}
	return out.canon()
}

func (e LinExpr) canon() LinExpr {
	slices.SortFunc(e.Terms, func(a, b Term) int { return cmpVar(a.Var, b.Var) })
	out := e.Terms[:0]
	for _, t := range e.Terms {
		if n := len(out); n > 0 && out[n-1].Var == t.Var {
			out[n-1].Coef += t.Coef
		} else {
			out = append(out, t)
		}
	}
	final := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			final = append(final, t)
		}
	}
	e.Terms = final
	return e
}

// Eval evaluates the expression under an assignment (as signed arithmetic).
func (e LinExpr) Eval(asn map[Var]uint64) int64 {
	s := e.K
	for _, t := range e.Terms {
		s += t.Coef * int64(asn[t.Var])
	}
	return s
}

// Vars returns the variables mentioned by the expression.
func (e LinExpr) Vars() []Var {
	out := make([]Var, len(e.Terms))
	for i, t := range e.Terms {
		out[i] = t.Var
	}
	return out
}

func (e LinExpr) String() string {
	var b strings.Builder
	for i, t := range e.Terms {
		if i > 0 && t.Coef >= 0 {
			b.WriteString("+")
		}
		if t.Coef == 1 {
			b.WriteString(t.Var.String())
		} else if t.Coef == -1 {
			b.WriteString("-" + t.Var.String())
		} else {
			b.WriteString(strconv.FormatInt(t.Coef, 10) + "*" + t.Var.String())
		}
	}
	if e.K != 0 || len(e.Terms) == 0 {
		if e.K >= 0 && len(e.Terms) > 0 {
			b.WriteString("+")
		}
		b.WriteString(strconv.FormatInt(e.K, 10))
	}
	return b.String()
}

// Constraint asserts "E Op 0" (e.g. E == 0, E <= 0). All comparisons are
// over signed values of the linear expression; variables themselves are
// unsigned and bounded by their domains.
type Constraint struct {
	E  LinExpr
	Op ir.CmpOp
}

// NewCmp builds the constraint "a op b".
func NewCmp(op ir.CmpOp, a, b LinExpr) Constraint {
	return Constraint{E: a.Sub(b), Op: op}
}

// Holds evaluates the constraint under an assignment.
func (c Constraint) Holds(asn map[Var]uint64) bool { return CmpZero(c.Op, c.E.Eval(asn)) }

// CmpZero reports whether "v op 0" holds over the signed integers: the
// meaning of a linear constraint, which does not wrap. Concrete values
// compare by ir.CmpOp.Eval instead.
func CmpZero(op ir.CmpOp, v int64) bool {
	switch op {
	case ir.CmpEq:
		return v == 0
	case ir.CmpNe:
		return v != 0
	case ir.CmpLt:
		return v < 0
	case ir.CmpLe:
		return v <= 0
	case ir.CmpGt:
		return v > 0
	case ir.CmpGe:
		return v >= 0
	}
	return false
}

// Negate returns the negated constraint.
func (c Constraint) Negate() Constraint {
	return Constraint{E: c.E, Op: c.Op.Negate()}
}

func (c Constraint) String() string {
	return c.E.String() + " " + c.Op.String() + " 0"
}

// Space carries the variable domains of a constraint system: header field
// bit widths plus explicit per-variable overrides for havoc variables.
// Domain registration and lookup are safe for concurrent use: engine workers
// register havoc domains while sibling workers run feasibility checks, and
// model-counting workers read domains while resolving marginals. FieldBits
// is immutable after construction and read without locking.
type Space struct {
	FieldBits map[string]int

	mu        sync.RWMutex
	varDomain map[Var]Interval
}

// NewSpace builds a Space from header field declarations.
func NewSpace(fields []ir.Field) *Space {
	s := &Space{FieldBits: make(map[string]int, len(fields)), varDomain: map[Var]Interval{}}
	for _, f := range fields {
		s.FieldBits[f.Name] = f.Bits
	}
	return s
}

// SetDomain overrides the domain of one variable (used for havoc vars).
func (s *Space) SetDomain(v Var, iv Interval) {
	s.mu.Lock()
	s.varDomain[v] = iv
	s.mu.Unlock()
}

// Domain returns the domain interval of a variable.
func (s *Space) Domain(v Var) Interval {
	s.mu.RLock()
	iv, ok := s.varDomain[v]
	s.mu.RUnlock()
	if ok {
		return iv
	}
	if bits, ok := s.FieldBits[v.Field]; ok {
		return FullInterval(bits)
	}
	// Unknown variables get the widest sensible default.
	return FullInterval(32)
}

// Clone returns a deep copy of the Space.
func (s *Space) Clone() *Space {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &Space{
		FieldBits: s.FieldBits, // immutable after construction
		varDomain: make(map[Var]Interval, len(s.varDomain)),
	}
	for k, v := range s.varDomain {
		c.varDomain[k] = v
	}
	return c
}
