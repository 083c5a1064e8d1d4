package obs

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBounds are the fixed exponential bucket upper bounds (seconds-scale:
// 1 microsecond through ~100 seconds, three buckets per decade).
var histBounds = func() []float64 {
	var b []float64
	for exp := -6; exp <= 2; exp++ {
		for _, m := range []float64{1, 2, 5} {
			b = append(b, m*math.Pow(10, float64(exp)))
		}
	}
	return b
}()

// Histogram accumulates observations into fixed exponential buckets; it is
// sized for latency-style data (microseconds to minutes) but accepts any
// non-negative value.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	buckets  []int64 // len(histBounds)+1, allocated on first observation
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(histBounds, v)
	h.mu.Lock()
	if h.buckets == nil {
		h.buckets = make([]int64, len(histBounds)+1)
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[idx]++
	h.mu.Unlock()
}

// Summary returns count, sum, and approximate p50/p99. Quantiles are bucket
// upper bounds clamped to the observed [min, max] range, so they are always
// finite and defined: an empty histogram reports 0, a single observation
// reports that exact value, and values past the last bucket bound report
// the observed maximum rather than +Inf.
func (h *Histogram) Summary() (count int64, sum, p50, p99 float64) {
	if h == nil {
		return 0, 0, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	count, sum = h.count, h.sum
	p50 = h.quantileLocked(0.5)
	p99 = h.quantileLocked(0.99)
	return
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if h.count == 1 {
		return h.max
	}
	est := h.max
	target := int64(math.Ceil(q * float64(h.count)))
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= target {
			if i < len(histBounds) {
				est = histBounds[i]
			}
			break
		}
	}
	// Clamp the bucket bound to the observed range: the estimate must never
	// exceed the largest value actually seen (or undercut the smallest).
	return math.Min(math.Max(est, h.min), h.max)
}

// Buckets returns the histogram's bucket upper bounds and the cumulative
// count at or below each bound, plus the total count as the final entry
// (the "+Inf" bucket) — the shape Prometheus exposition needs.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = append([]float64(nil), histBounds...)
	cumulative = make([]int64, len(histBounds)+1)
	if h == nil {
		return bounds, cumulative
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var run int64
	for i := range cumulative {
		if h.buckets != nil {
			run += h.buckets[i]
		}
		cumulative[i] = run
	}
	return bounds, cumulative
}

// ViewFunc snapshots an external stats source into a flat name->value map.
// Views are how the per-subsystem stats structs (core/sym/mc/solver) appear
// in the registry without being rewritten onto atomic primitives.
type ViewFunc func() map[string]float64

// Registry is a named collection of counters, gauges, histograms, and
// views. A nil *Registry ignores all updates and snapshots empty, so
// instrumented code passes it through unconditionally.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	views    map[string]ViewFunc
	help     map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		views:    map[string]ViewFunc{},
		help:     map[string]string{},
	}
}

// SetHelp attaches a HELP string to a metric name (the pre-sanitization
// base name, without any {label} suffix); WritePrometheus emits it.
func (r *Registry) SetHelp(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. Nil-safe:
// a nil registry returns a nil counter whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterView attaches a snapshot function under a name prefix; its keys
// appear in Snapshot as "<name>.<key>".
func (r *Registry) RegisterView(name string, view ViewFunc) {
	if r == nil || view == nil {
		return
	}
	r.mu.Lock()
	r.views[name] = view
	r.mu.Unlock()
}

// SetAll stores every entry of vals as a gauge named "<prefix>.<key>"
// (bare "<key>" when prefix is empty) — the bulk form used to publish a
// Stats.Metrics() map once per iteration.
func (r *Registry) SetAll(prefix string, vals map[string]float64) {
	if r == nil {
		return
	}
	if prefix != "" {
		prefix += "."
	}
	for k, v := range vals {
		r.Gauge(prefix + k).Set(v)
	}
}

// Snapshot flattens the registry into a single map: counters and gauges by
// name, histograms as .count/.sum/.p50/.p99, and each view's keys under its
// prefix. Entries are applied in a fixed layering — counters, then gauges,
// then histograms, then views in sorted name order — so when names collide
// (a SetAll gauge shadowing a live view, say) the winner is deterministic:
// later layers and later-sorted names overwrite earlier ones.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return map[string]float64{}
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	views := make(map[string]ViewFunc, len(r.views))
	for k, v := range r.views {
		views[k] = v
	}
	r.mu.RUnlock()

	out := map[string]float64{}
	for _, k := range sortedKeys(counters) {
		out[k] = float64(counters[k].Value())
	}
	for _, k := range sortedKeys(gauges) {
		out[k] = gauges[k].Value()
	}
	for _, k := range sortedKeys(hists) {
		count, sum, p50, p99 := hists[k].Summary()
		out[k+".count"] = float64(count)
		out[k+".sum"] = sum
		out[k+".p50"] = p50
		out[k+".p99"] = p99
	}
	for _, name := range sortedKeys(views) {
		vals := views[name]()
		for _, k := range sortedKeys(vals) {
			out[name+"."+k] = vals[k]
		}
	}
	return out
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var expvarOnce sync.Once

// PublishExpvar exposes the registry's snapshot as the expvar variable
// "p4wn" (visible at /debug/vars). Safe to call more than once; only the
// first registry wins, matching expvar's global-namespace semantics.
func (r *Registry) PublishExpvar() {
	if r == nil {
		return
	}
	expvarOnce.Do(func() {
		expvar.Publish("p4wn", expvar.Func(func() any { return r.Snapshot() }))
	})
}
