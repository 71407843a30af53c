// Package metrics provides lightweight, concurrency-safe counters and
// histograms used by the simulation harness and the benchmark suite.
//
// The package is deliberately dependency-free: experiments in this
// repository must be runnable offline with the standard library only.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing concurrency-safe counter. Values
// that can go down (in-flight transactions, queue depths) belong in a
// Gauge.
type Counter struct {
	v atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by delta. Counters are strictly monotonic:
// a negative delta panics — use a Gauge for values that decrease.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic(fmt.Sprintf("metrics: Counter.Add(%d): counters are monotonic, use a Gauge", delta))
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a concurrency-safe instantaneous value that can rise and fall
// (in-flight transactions, pending subtransactions, queue depths).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add moves the gauge by delta (any sign).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records a stream of duration (or generic numeric) samples in
// fixed log-linear buckets and reports order statistics. Its memory is
// bounded by the range of the values, not their number: each power of two
// (octave) the samples reach holds subBuckets counters, allocated when the
// first sample lands in it, and count, sum, min and max are kept exactly.
// A quantile reads the exact min and max at its end ranks and a bucket's
// midpoint at every other rank, within 1/(2*subBuckets) of the sample
// there (relative).
type Histogram struct {
	mu       sync.Mutex
	count    int
	sum      float64
	min, max float64
	zero     uint64  // samples equal to zero
	pos, neg octaves // samples above zero, and the magnitudes of those below
}

// subBuckets is the number of equal-width buckets per octave: a bucket of
// octave [2^e, 2^(e+1)) is 2^e/subBuckets wide, so its midpoint is within
// 1/(2*subBuckets) = 1/128 of any value in it.
const subBuckets = 64

// octave holds one power of two's bucket counts.
type octave [subBuckets]uint64

// octaves holds the buckets of one sign, octave e at oct[e-lo], nil until a
// sample lands in it.
type octaves struct {
	lo  int
	oct []*octave
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf returns the octave and sub-bucket of a magnitude m > 0.
func bucketOf(m float64) (e, s int) {
	m = math.Min(m, math.MaxFloat64) // +Inf counts in the last bucket
	frac, exp := math.Frexp(m)       // m = frac * 2^exp, frac in [0.5, 1)
	return exp - 1, int((2*frac - 1) * subBuckets)
}

// midpoint returns the midpoint of sub-bucket s of octave e.
func midpoint(e, s int) float64 {
	return math.Ldexp(1+(float64(s)+0.5)/subBuckets, e)
}

// add counts n samples in sub-bucket s of octave e, growing the octave
// range as needed.
func (o *octaves) add(e, s int, n uint64) {
	switch {
	case o.oct == nil:
		o.lo = e
		o.oct = []*octave{nil}
	case e < o.lo:
		o.oct = append(make([]*octave, o.lo-e, o.lo-e+len(o.oct)), o.oct...)
		o.lo = e
	case e >= o.lo+len(o.oct):
		o.oct = append(o.oct, make([]*octave, e-o.lo-len(o.oct)+1)...)
	}
	b := o.oct[e-o.lo]
	if b == nil {
		b = new(octave)
		o.oct[e-o.lo] = b
	}
	b[s] += n
}

// merge adds every count of src.
func (o *octaves) merge(src *octaves) {
	for i, b := range src.oct {
		if b == nil {
			continue
		}
		for s, n := range b {
			if n > 0 {
				o.add(src.lo+i, s, n)
			}
		}
	}
}

// clone returns a deep copy.
func (o *octaves) clone() octaves {
	c := octaves{lo: o.lo, oct: make([]*octave, len(o.oct))}
	for i, b := range o.oct {
		if b != nil {
			cp := *b
			c.oct[i] = &cp
		}
	}
	return c
}

// bytes returns the memory the bucket storage holds.
func (o *octaves) bytes() int {
	n := len(o.oct) * 8
	for _, b := range o.oct {
		if b != nil {
			n += len(b) * 8
		}
	}
	return n
}

// Observe records one sample. A NaN is dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	switch {
	case v > 0:
		e, s := bucketOf(v)
		h.pos.add(e, s, 1)
	case v < 0:
		e, s := bucketOf(-v)
		h.neg.add(e, s, 1)
	default:
		h.zero++
	}
	h.mu.Unlock()
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Merge adds every count of src to h, so a histogram merged from per-site
// histograms reports what one histogram that observed every sample would.
// src is copied before h is locked, so two histograms may merge into each
// other concurrently.
func (h *Histogram) Merge(src *Histogram) {
	src.mu.Lock()
	count, sum, lo, hi, zero := src.count, src.sum, src.min, src.max, src.zero
	pos, neg := src.pos.clone(), src.neg.clone()
	src.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	if h.count == 0 || lo < h.min {
		h.min = lo
	}
	if h.count == 0 || hi > h.max {
		h.max = hi
	}
	h.count += count
	h.sum += sum
	h.zero += zero
	h.pos.merge(&pos)
	h.neg.merge(&neg)
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Bytes returns the memory the histogram's buckets hold: it grows with
// the range of the samples, never with their number.
func (h *Histogram) Bytes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pos.bytes() + h.neg.bytes()
}

// Quantile returns the q-quantile (0 <= q <= 1), interpolating between the
// two nearest ranks, or 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// quantileLocked is Quantile for callers holding mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	pos := q * float64(h.count-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.rankLocked(lo)
	}
	frac := pos - float64(lo)
	return h.rankLocked(lo)*(1-frac) + h.rankLocked(hi)*frac
}

// rankLocked returns the sample of rank r (0-based, ascending): the exact
// min or max at the ends, else the midpoint of r's bucket, clamped to
// [min, max]. Callers hold mu.
func (h *Histogram) rankLocked(r int) float64 {
	switch r {
	case 0:
		return h.min
	case h.count - 1:
		return h.max
	}
	left := uint64(r)
	v := 0.0
	if m, ok := h.neg.find(&left, true); ok {
		v = -m
	} else if left >= h.zero {
		left -= h.zero
		v, _ = h.pos.find(&left, false)
	}
	return math.Min(math.Max(v, h.min), h.max)
}

// find returns the midpoint of the bucket holding rank *r, counting from
// the smallest magnitude (the largest when desc), or consumes the octaves'
// samples from *r and reports false when the rank lies beyond them.
func (o *octaves) find(r *uint64, desc bool) (float64, bool) {
	for i := range o.oct {
		if desc {
			i = len(o.oct) - 1 - i
		}
		b := o.oct[i]
		if b == nil {
			continue
		}
		for s := range b {
			if desc {
				s = subBuckets - 1 - s
			}
			if *r < b[s] {
				return midpoint(o.lo+i, s), true
			}
			*r -= b[s]
		}
	}
	return 0, false
}

// view reads the count, the sum and the qs-quantiles under one lock, so
// they all describe the same instant.
func (h *Histogram) view(qs ...float64) (count int, sum float64, quantiles []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	quantiles = make([]float64, len(qs))
	for i, q := range qs {
		quantiles[i] = h.quantileLocked(q)
	}
	return h.count, h.sum, quantiles
}

// Min returns the smallest sample, or 0 for an empty histogram.
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest sample, or 0 for an empty histogram.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Summary is a point-in-time snapshot of a histogram.
type Summary struct {
	Count int
	Mean  float64
	P50   float64
	P90   float64
	P99   float64
	Min   float64
	Max   float64
}

// Snapshot computes a Summary of the histogram, every field from the same
// instant.
func (h *Histogram) Snapshot() Summary {
	count, sum, q := h.view(0.50, 0.90, 0.99, 0, 1)
	mean := 0.0
	if count > 0 {
		mean = sum / float64(count)
	}
	return Summary{Count: count, Mean: mean, P50: q[0], P90: q[1], P99: q[2], Min: q[3], Max: q[4]}
}

// String renders the summary in a compact human-readable form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// Registry is a named collection of counters, gauges, and histograms. A
// Registry is safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// SetHelp attaches a help string to a metric, emitted by WriteText as a
// "# HELP" line before the metric's samples. The name may carry a label
// block (it is stripped — help is per metric family, not per series).
func (r *Registry) SetHelp(name, help string) {
	base, _ := splitLabels(name)
	r.mu.Lock()
	r.help[sanitizeMetricName(base)] = help
	r.mu.Unlock()
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Adopt registers externally-owned instruments under a name, so stats
// structs kept as plain fields elsewhere (coordinator and site Stats) can
// be exposed through WriteText without copying. A nil instrument is
// ignored; adopting over an existing name replaces it.
func (r *Registry) Adopt(name string, instrument any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch v := instrument.(type) {
	case *Counter:
		if v != nil {
			r.counters[name] = v
		}
	case *Gauge:
		if v != nil {
			r.gauges[name] = v
		}
	case *Histogram:
		if v != nil {
			r.histograms[name] = v
		}
	default:
		panic(fmt.Sprintf("metrics: Adopt(%q): unsupported instrument type %T", name, instrument))
	}
}

// CounterNames returns the sorted names of all registered counters.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the sorted names of all registered gauges.
func (r *Registry) GaugeNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the sorted names of all registered histograms.
func (r *Registry) HistogramNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sanitizeMetricName maps a registry name onto the Prometheus metric-name
// charset [a-zA-Z0-9_:], replacing everything else with '_'.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			r = '_'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// sanitizeLabelName maps a name onto the Prometheus label-name charset
// [a-zA-Z0-9_] (no colon, which is reserved for metric names).
func sanitizeLabelName(name string) string {
	return strings.ReplaceAll(sanitizeMetricName(name), ":", "_")
}

// labelPair is one parsed key="value" label, with value held unescaped.
type labelPair struct {
	key, value string
}

// Label renders a metric name with attached label pairs, suitable for
// Registry registration and Adopt: Label("rtt_ms", "site", "s0") yields
// `rtt_ms{site="s0"}`. WriteText recognizes the label block and escapes
// the values per the Prometheus text format instead of mangling the
// braces through name sanitization. Pairs must come as key, value, ...;
// an odd count panics.
func Label(base string, pairs ...string) string {
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("metrics: Label(%q): odd label arguments %d", base, len(pairs)))
	}
	ps := make([]labelPair, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ps = append(ps, labelPair{pairs[i], pairs[i+1]})
	}
	return base + renderLabels(ps)
}

// escapeLabelValue escapes a raw label value per the Prometheus text
// exposition format: backslash, double quote, and line feed.
func escapeLabelValue(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a help string per the Prometheus text exposition
// format: backslash and line feed (quotes stay literal on HELP lines).
func escapeHelp(h string) string {
	return strings.ReplaceAll(strings.ReplaceAll(h, `\`, `\\`), "\n", `\n`)
}

// renderLabels renders pairs as a `{k="v",...}` block with values escaped,
// or "" when there are no pairs.
func renderLabels(pairs []labelPair) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelName(p.key))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabels splits a registry name into its base metric name and raw
// label block: `m{a="b"}` → ("m", `a="b"`). A name without a well-formed
// trailing block comes back with labels == "".
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") || i+1 > len(name)-1 {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// parseLabels parses a raw label block (`k="v",k2="v2"`, values possibly
// containing \\, \", and \n escapes) into unescaped pairs. ok is false on
// any malformed input, in which case the caller should fall back to
// treating the whole registry name as an unlabeled metric name.
func parseLabels(s string) (pairs []labelPair, ok bool) {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, false
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		closed := false
		i := 0
		for i < len(rest) {
			switch c := rest[i]; c {
			case '\\':
				if i+1 >= len(rest) {
					return nil, false
				}
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, false
				}
				i += 2
			case '"':
				closed = true
				i++
			default:
				val.WriteByte(c)
				i++
			}
			if closed {
				break
			}
		}
		if !closed {
			return nil, false
		}
		pairs = append(pairs, labelPair{key, val.String()})
		s = rest[i:]
		if len(s) > 0 {
			if s[0] != ',' || len(s) == 1 {
				return nil, false
			}
			s = s[1:]
		}
	}
	return pairs, true
}

// normalizeName canonicalizes a registry name for exposition: the base is
// sanitized to the metric-name charset and label values are re-escaped.
// A name whose label block does not parse is sanitized wholesale (the
// pre-label legacy behavior, which mangles braces into underscores).
func normalizeName(name string) (base string, pairs []labelPair) {
	rawBase, rawLabels := splitLabels(name)
	if rawLabels == "" {
		return sanitizeMetricName(name), nil
	}
	pairs, ok := parseLabels(rawLabels)
	if !ok {
		return sanitizeMetricName(name), nil
	}
	return sanitizeMetricName(rawBase), pairs
}

// textSample is one exposition line's worth of snapshot, grouped by base
// metric family for TYPE/HELP emission.
type textSample struct {
	base   string
	labels string // canonical rendered block, "" when unlabeled
	value  int64
	h      *Histogram
}

func sortSamples(s []textSample) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].base != s[j].base {
			return s[i].base < s[j].base
		}
		return s[i].labels < s[j].labels
	})
}

// WriteText renders every registered metric in the Prometheus text
// exposition format, in deterministic sorted order: counters and gauges as
// single samples, histograms as a quantile summary with _sum and _count.
// Names built with Label keep their label block (values escaped per the
// format); HELP lines appear for families registered via SetHelp, with
// backslash and newline escaped.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	counters := make([]textSample, 0, len(r.counters))
	for n, c := range r.counters {
		base, pairs := normalizeName(n)
		counters = append(counters, textSample{base: base, labels: renderLabels(pairs), value: c.Value()})
	}
	gauges := make([]textSample, 0, len(r.gauges))
	for n, g := range r.gauges {
		base, pairs := normalizeName(n)
		gauges = append(gauges, textSample{base: base, labels: renderLabels(pairs), value: g.Value()})
	}
	hists := make([]textSample, 0, len(r.histograms))
	for n, h := range r.histograms {
		base, pairs := normalizeName(n)
		hists = append(hists, textSample{base: base, labels: renderLabels(pairs), h: h})
	}
	help := make(map[string]string, len(r.help))
	for base, h := range r.help {
		help[base] = h
	}
	r.mu.Unlock()

	head := func(base, kind string) error {
		if h, ok := help[base]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, escapeHelp(h)); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}

	for _, kind := range []struct {
		name    string
		samples []textSample
	}{{"counter", counters}, {"gauge", gauges}} {
		sortSamples(kind.samples)
		prevBase := ""
		for _, e := range kind.samples {
			if e.base != prevBase {
				if err := head(e.base, kind.name); err != nil {
					return err
				}
				prevBase = e.base
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", e.base, e.labels, e.value); err != nil {
				return err
			}
		}
	}

	sortSamples(hists)
	prevBase := ""
	for _, e := range hists {
		if e.base != prevBase {
			if err := head(e.base, "summary"); err != nil {
				return err
			}
			prevBase = e.base
		}
		count, sum, qs := e.h.view(0.50, 0.90, 0.99)
		for i, label := range []string{"0.5", "0.9", "0.99"} {
			if _, err := fmt.Fprintf(w, "%s%s %g\n", e.base, withQuantile(e.labels, label), qs[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
			e.base, e.labels, sum, e.base, e.labels, count); err != nil {
			return err
		}
	}
	return nil
}

// withQuantile merges a quantile label into an already-rendered label
// block: ("", "0.5") → `{quantile="0.5"}`; (`{site="s0"}`, "0.5") →
// `{site="s0",quantile="0.5"}`.
func withQuantile(labels, q string) string {
	if labels == "" {
		return `{quantile="` + q + `"}`
	}
	return labels[:len(labels)-1] + `,quantile="` + q + `"}`
}
