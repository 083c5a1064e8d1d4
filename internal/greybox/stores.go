package greybox

import (
	"fmt"
	"math"
)

// DefaultLocality is the default probability that an access's key belongs
// to a flow already tracked by the structure, given the structure is
// non-empty. Real traffic is flow-dominated: most packets belong to flows
// that have been seen before. Profiles can override it per store.
const DefaultLocality = 0.9

// HashStore is the probabilistic data store for a CRC hash table
// (paper Figure 4): slot count, active entries, the distribution of stored
// values, and a key-locality parameter.
type HashStore struct {
	Size     int
	Entries  float64 // expected active entries (fractional across paths)
	Vals     *ValueDist
	Locality float64
}

// NewHashStore creates an empty store with n slots.
func NewHashStore(n int) *HashStore {
	return &HashStore{Size: n, Vals: NewValueDist(), Locality: DefaultLocality}
}

// Clone deep-copies the store.
func (h *HashStore) Clone() *HashStore {
	c := *h
	c.Vals = h.Vals.Clone()
	return &c
}

// AccessProbs returns the three-way fork probabilities of paper Figure 5
// for an access with a fresh symbolic key:
//
//	empty:   the key's slot holds no entry            (N-k)/N scaled by miss
//	hit:     the slot holds an entry with the same key
//	collide: the slot holds an entry with a different key
//
// A returning flow (probability Locality when the table is non-empty) hits
// its own entry; a new flow lands on a uniformly random slot, which is
// occupied — a CRC collision — with probability k/N.
func (h *HashStore) AccessProbs() (pEmpty, pHit, pCollide float64) {
	metrics.hashAccesses.Add(1)
	if h.Size <= 0 {
		return 0, 0, 1
	}
	k := h.Entries
	if k > float64(h.Size) {
		k = float64(h.Size)
	}
	if k <= 0 {
		return 1, 0, 0
	}
	loc := h.Locality
	occ := k / float64(h.Size)
	pHit = loc
	pCollide = (1 - loc) * occ
	pEmpty = (1 - loc) * (1 - occ)
	return pEmpty, pHit, pCollide
}

// ApplyEmptyWrite installs a fresh entry with value v (Figure 5's write:
// entry count grows by one; the value distribution is reweighted
// k/(k+1) and the new value gets mass 1/(k+1)).
func (h *HashStore) ApplyEmptyWrite(v uint64) {
	k := h.Entries
	h.Vals.Scale(k / (k + 1))
	h.Vals.AddMass(v, 1/(k+1))
	h.Entries = k + 1
}

// ApplyHitWrite overwrites the matched entry's value with v. Entry count is
// unchanged; one expected entry's worth of mass moves to v.
func (h *HashStore) ApplyHitWrite(v uint64) {
	if h.Entries < 1 {
		h.ApplyEmptyWrite(v)
		return
	}
	w := 1 / h.Entries
	h.Vals.Scale(1 - w)
	h.Vals.AddMass(v, w)
	h.Vals.Normalize()
}

// ApplyHitInc adds inc to the matched entry's value and returns the
// distribution of the entry's new value (used to branch on the counter).
func (h *HashStore) ApplyHitInc(inc int64) *ValueDist {
	if h.Entries < 1 || h.Vals.Len() == 0 {
		h.ApplyEmptyWrite(uint64(max(inc, 0)))
		return PointDist(uint64(max(inc, 0)))
	}
	// Distribution of the matched entry's previous value is Vals itself;
	// its new value distribution is Vals shifted by inc.
	newVal := h.Vals.Clone()
	newVal.Normalize()
	newVal.Shift(inc)
	// The table's value distribution: one of k entries changed.
	w := 1 / h.Entries
	if w > 1 {
		w = 1
	}
	h.Vals.Mix(newVal, w)
	return newVal
}

// ApplyCollideEvict overwrites the colliding entry (the *Flow-style
// eviction): same update as a hit-write.
func (h *HashStore) ApplyCollideEvict(v uint64) { h.ApplyHitWrite(v) }

// Key returns a canonical state fingerprint for path merging.
func (h *HashStore) Key() string {
	return fmt.Sprintf("ht|%d|%.3f|%s", h.Size, h.Entries, h.Vals.Key())
}

// BloomStore is the probabilistic data store for a Bloom filter: total bits,
// hash function count, and the number of insertions. A membership test
// forks only two paths (paper §3.4), with probabilities determined
// mathematically by the filter parameters.
type BloomStore struct {
	Bits     int
	Hashes   int
	Inserts  float64
	Locality float64
}

// NewBloomStore creates an empty filter model.
func NewBloomStore(bits, hashes int) *BloomStore {
	return &BloomStore{Bits: bits, Hashes: hashes, Locality: DefaultLocality}
}

// Clone copies the store.
func (b *BloomStore) Clone() *BloomStore {
	c := *b
	return &c
}

// FalsePositiveRate returns (1 - (1-1/m)^{kn})^k.
func (b *BloomStore) FalsePositiveRate() float64 {
	if b.Bits <= 0 || b.Inserts <= 0 {
		return 0
	}
	m := float64(b.Bits)
	kn := float64(b.Hashes) * b.Inserts
	pBitSet := 1 - math.Pow(1-1/m, kn)
	return math.Pow(pBitSet, float64(b.Hashes))
}

// HitProb returns the probability a membership test answers positive: a
// returning key (locality) is a true positive; a fresh key is a false
// positive at the filter's current rate.
func (b *BloomStore) HitProb() float64 {
	metrics.bloomQueries.Add(1)
	if b.Inserts <= 0 {
		return 0
	}
	fpr := b.FalsePositiveRate()
	return b.Locality + (1-b.Locality)*fpr
}

// Insert records one insertion.
func (b *BloomStore) Insert() {
	metrics.bloomInserts.Add(1)
	b.Inserts++
}

// Key returns a canonical state fingerprint.
func (b *BloomStore) Key() string {
	return fmt.Sprintf("bf|%d|%d|%.3f", b.Bits, b.Hashes, b.Inserts)
}

// SketchStore is the probabilistic data store for a count-min sketch: it
// keeps one per-flow true-count distribution plus the total update volume,
// from which per-row overcounts are derived. The estimate for a key is the
// row minimum; since row overcounts are i.i.d., the estimate distribution
// is the true-count distribution shifted by the expected minimum overcount.
type SketchStore struct {
	Rows     int
	Cols     int
	Total    float64 // total inserted weight
	Keys     float64 // expected distinct keys
	Vals     *ValueDist
	Locality float64
}

// NewSketchStore creates an empty sketch model.
func NewSketchStore(rows, cols int) *SketchStore {
	return &SketchStore{Rows: rows, Cols: cols, Vals: NewValueDist(), Locality: DefaultLocality}
}

// Clone deep-copies the store.
func (s *SketchStore) Clone() *SketchStore {
	c := *s
	c.Vals = s.Vals.Clone()
	return &c
}

// Update adds inc for a symbolic key and returns the distribution of the
// key's new count-min estimate.
func (s *SketchStore) Update(inc int64) *ValueDist {
	metrics.sketchUpdates.Add(1)
	var est *ValueDist
	if s.Keys < 1 || s.Vals.Len() == 0 {
		s.Keys = 1
		s.Vals = PointDist(uint64(max(inc, 0)))
		est = s.Vals.Clone()
	} else {
		loc := s.Locality
		// Returning key: its count increments. New key: starts at inc.
		newVal := s.Vals.Clone()
		newVal.Normalize()
		newVal.Shift(inc)
		w := loc / s.Keys
		if w > 1 {
			w = 1
		}
		s.Vals.Mix(newVal, w)
		s.Keys += 1 - loc
		s.Vals.Mix(PointDist(uint64(max(inc, 0))), (1-loc)/s.Keys)
		est = NewValueDist()
		est.Mix(newVal, 1) // estimate for the updated key
		est.Scale(loc)
		est.AddMass(uint64(max(inc, 0)), 1-loc)
	}
	s.Total += float64(inc)
	est.Shift(int64(s.Overcount()))
	est.Normalize()
	return est
}

// Overcount returns the expected count-min overestimate: other keys' mass
// colliding into the minimum row, ≈ Total/Cols damped by the row minimum.
func (s *SketchStore) Overcount() float64 {
	if s.Cols <= 0 {
		return 0
	}
	base := s.Total / float64(s.Cols)
	// Taking the min over Rows i.i.d. overcounts shrinks the expectation.
	return base / float64(max(1, s.Rows))
}

// EstimateDist returns the estimate distribution for a fresh query without
// updating the sketch.
func (s *SketchStore) EstimateDist() *ValueDist {
	metrics.sketchEstimate.Add(1)
	est := s.Vals.Clone()
	est.Normalize()
	est.Shift(int64(s.Overcount()))
	return est
}

// Key returns a canonical state fingerprint.
func (s *SketchStore) Key() string {
	return fmt.Sprintf("cms|%dx%d|%.3f|%.3f|%s", s.Rows, s.Cols, s.Total, s.Keys, s.Vals.Key())
}
