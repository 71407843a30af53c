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

// Histogram records a stream of duration (or generic numeric) samples and
// reports order statistics. It keeps all samples: experiment runs in this
// repository are bounded, so exactness is preferred over a sketch, and
// golden tests rely on exact quantiles.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
	sum     float64
}

// NewHistogram returns an empty exact histogram that retains every sample.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.sum += v
	h.samples = append(h.samples, v)
	h.sorted = false
	h.mu.Unlock()
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Merge appends every sample of src to h, so a histogram merged from
// per-site histograms reports exactly what one histogram that observed
// every sample would. src is copied before h is locked, so two histograms
// may merge into each other concurrently.
func (h *Histogram) Merge(src *Histogram) {
	src.mu.Lock()
	samples := append([]float64(nil), src.samples...)
	sum := src.sum
	src.mu.Unlock()
	h.mu.Lock()
	h.samples = append(h.samples, samples...)
	h.sum += sum
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
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
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// ensureSortedLocked sorts the sample slice if needed. Callers must hold mu.
func (h *Histogram) ensureSortedLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank
// interpolation, or 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// quantileLocked is Quantile for callers holding mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSortedLocked()
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	pos := q * float64(len(h.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.samples[lo]
	}
	frac := pos - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// view reads the count, the sum and the qs-quantiles under one lock, from
// one sorted view of the samples, so they all describe the same instant.
func (h *Histogram) view(qs ...float64) (count int, sum float64, quantiles []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	quantiles = make([]float64, len(qs))
	for i, q := range qs {
		quantiles[i] = h.quantileLocked(q)
	}
	return len(h.samples), h.sum, quantiles
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
