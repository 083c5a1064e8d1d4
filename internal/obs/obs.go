// Package obs is P4wn's observability layer: a low-overhead event/span
// tracer, a metrics registry unifying the per-subsystem stats structs, an
// optional expvar/pprof HTTP endpoint, and the versioned JSON run report
// that p4wnbench and CI diff across revisions.
//
// Everything is opt-in and nil-safe: a nil *Tracer records nothing and
// allocates nothing per event (its spans still time their interval), and a
// nil *Registry ignores updates, so the
// profiler hot path pays one predictable branch when observability is off.
// The package depends only on the standard library; the rest of the repo
// imports obs, never the reverse.
package obs

// Field is one key/value attribute attached to an event. Values are
// float64 because every attribute we emit (counts, probabilities, seconds)
// is numeric; stringly-typed events stay in the message.
type Field struct {
	Key string
	Val float64
}

// F builds a Field; it keeps call sites short enough to stay readable
// inside hot loops.
func F(key string, val float64) Field { return Field{Key: key, Val: val} }
