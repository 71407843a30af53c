package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("value = %d, want 8000", c.Value())
	}
}

func TestCounterRejectsNegativeDelta(t *testing.T) {
	var c Counter
	defer func() {
		if recover() == nil {
			t.Fatalf("Add(-1) did not panic; counters must be monotonic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("value = %d, want 1", g.Value())
	}
	g.Add(-5)
	if g.Value() != -4 {
		t.Fatalf("value = %d, want -4", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("value = %d, want 7", g.Value())
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("value = %d, want 0", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not zero-valued")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 15 || h.Mean() != 3 {
		t.Fatalf("count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	// Interior ranks read their bucket's midpoint.
	if got := h.Quantile(0.5); !within(got, 3) {
		t.Fatalf("p50 = %v, want 3 within 1/128", got)
	}
	if got := h.Quantile(0.25); !within(got, 2) {
		t.Fatalf("p25 = %v, want 2 within 1/128", got)
	}
}

// within reports whether got is within the buckets' relative error bound,
// 1/128, of want.
func within(got, want float64) bool {
	return math.Abs(got-want) <= math.Abs(want)/(2*subBuckets)+1e-12
}

// TestHistogramQuantileError checks every quantile against the exact
// interpolated order statistic of the same samples, over values spanning
// many octaves on both sides of zero: no reading is off by more than 1/128
// of the exact value, and the ends are exact.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram()
		var vals []float64
		for i := 0; i < 1+rng.Intn(500); i++ {
			v := math.Exp(rng.NormFloat64() * 6)
			if trial%3 == 0 && rng.Intn(4) == 0 {
				v = -v
			}
			vals = append(vals, v)
			h.Observe(v)
		}
		sort.Float64s(vals)
		exact := func(q float64) float64 {
			pos := q * float64(len(vals)-1)
			lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
			return vals[lo]*(1-(pos-float64(lo))) + vals[hi]*(pos-float64(lo))
		}
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.99} {
			got, want := h.Quantile(q), exact(q)
			// An interpolation across zero mixes the signs, so bound it by
			// the larger neighbour's magnitude.
			pos := q * float64(len(vals)-1)
			bound := math.Max(math.Abs(vals[int(math.Floor(pos))]), math.Abs(vals[int(math.Ceil(pos))])) / (2 * subBuckets)
			if math.Abs(got-want) > bound+1e-12 {
				t.Fatalf("trial %d: Quantile(%v) = %v, exact %v", trial, q, got, want)
			}
		}
		if h.Min() != vals[0] || h.Max() != vals[len(vals)-1] {
			t.Fatalf("trial %d: min %v max %v, want %v %v", trial, h.Min(), h.Max(), vals[0], vals[len(vals)-1])
		}
	}
}

// TestHistogramBytesBounded: the buckets' memory depends on the range of
// the samples, not on how many there are.
func TestHistogramBytesBounded(t *testing.T) {
	h := NewHistogram()
	observe := func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(0.01 + float64(i%100000)/100) // 0.01 ms .. 1 s
		}
	}
	observe(100000)
	first := h.Bytes()
	observe(200000)
	if got := h.Bytes(); got != first {
		t.Fatalf("buckets grew from %d to %d bytes with the sample count", first, got)
	}
	if first > 20*(subBuckets+1)*8 {
		t.Fatalf("buckets hold %d bytes for 17 octaves of samples", first)
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	h := NewHistogram()
	h.Observe(10)
	_ = h.Quantile(0.5) // sorts
	h.Observe(1)        // must invalidate sort
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("min after late observe = %v", got)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		last := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(1500 * time.Microsecond)
	if got := h.Mean(); got != 1.5 {
		t.Fatalf("mean = %v ms, want 1.5", got)
	}
}

func TestSnapshotAndString(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 || !within(s.P50, 50.5) || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.String() == "" {
		t.Fatalf("empty string rendering")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 5000; i++ {
		a.Observe(float64(i))
		b.Observe(float64(-i))
	}
	merged := NewHistogram()
	merged.Merge(a)
	merged.Merge(b)
	merged.Merge(NewHistogram())
	if merged.Count() != 10000 || merged.Sum() != 0 {
		t.Fatalf("count=%d sum=%v, want every sample once", merged.Count(), merged.Sum())
	}
	if merged.Min() != -5000 || merged.Max() != 5000 {
		t.Fatalf("min=%v max=%v", merged.Min(), merged.Max())
	}
	// Merging adds counts: the merge reads exactly as one histogram that
	// observed every sample.
	one := NewHistogram()
	for i := 1; i <= 5000; i++ {
		one.Observe(float64(i))
		one.Observe(float64(-i))
	}
	for _, q := range []float64{0.01, 0.3, 0.5, 0.77, 0.99} {
		if got, want := merged.Quantile(q), one.Quantile(q); got != want {
			t.Fatalf("merged Quantile(%v) = %v, one histogram reads %v", q, got, want)
		}
	}
	if a.Count() != 5000 {
		t.Fatalf("merge changed its source: count=%d", a.Count())
	}
}

// TestHistogramMergeSparse merges a histogram whose samples leave empty
// octaves between them.
func TestHistogramMergeSparse(t *testing.T) {
	src, dst := NewHistogram(), NewHistogram()
	for _, v := range []float64{0.001, 1, 1e6} {
		src.Observe(v)
	}
	dst.Merge(src)
	if dst.Count() != 3 || !within(dst.Quantile(0.5), 1) || dst.Max() != 1e6 {
		t.Fatalf("merged sparse histogram: count %d, p50 %v, max %v", dst.Count(), dst.Quantile(0.5), dst.Max())
	}
}

// TestHistogramMergeConcurrent merges two histograms into each other while
// both observe: each merge must see a consistent source, and neither
// direction may deadlock the other.
func TestHistogramMergeConcurrent(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	var wg sync.WaitGroup
	for _, pair := range [][2]*Histogram{{a, b}, {b, a}} {
		dst, src := pair[0], pair[1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mutual merges grow both sides geometrically: keep the
			// round count small.
			for i := 0; i < 10; i++ {
				src.Observe(1)
				dst.Merge(src)
			}
		}()
	}
	wg.Wait()
	if a.Sum() != float64(a.Count()) || b.Sum() != float64(b.Count()) {
		t.Fatalf("sum and count disagree: a %v/%d, b %v/%d", a.Sum(), a.Count(), b.Sum(), b.Count())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	if r.Counter("a").Value() != 2 {
		t.Fatalf("counter identity not stable")
	}
	r.Histogram("h").Observe(1)
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if h := r.HistogramNames(); len(h) != 1 || h[0] != "h" {
		t.Fatalf("hist names = %v", h)
	}
}

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("inflight").Inc()
	r.Gauge("inflight").Inc()
	if r.Gauge("inflight").Value() != 2 {
		t.Fatalf("gauge identity not stable")
	}
	r.Gauge("depth").Set(-3)
	if names := r.GaugeNames(); len(names) != 2 || names[0] != "depth" || names[1] != "inflight" {
		t.Fatalf("gauge names = %v", names)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("txn.commits").Add(12)
	r.Counter("txn.aborts").Inc()
	r.Gauge("txn.in-flight").Set(3)
	h := r.Histogram("latency ms")
	h.Observe(2.5)
	h.Observe(2.5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE txn_aborts counter
txn_aborts 1
# TYPE txn_commits counter
txn_commits 12
# TYPE txn_in_flight gauge
txn_in_flight 3
# TYPE latency_ms summary
latency_ms{quantile="0.5"} 2.5
latency_ms{quantile="0.9"} 2.5
latency_ms{quantile="0.99"} 2.5
latency_ms_sum 5
latency_ms_count 2
`
	if got := sb.String(); got != want {
		t.Fatalf("WriteText mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Determinism: a second render is byte-identical.
	var sb2 strings.Builder
	if err := r.WriteText(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Fatalf("WriteText not deterministic")
	}
}

func TestLabelRendersEscapedBlock(t *testing.T) {
	cases := []struct {
		base  string
		pairs []string
		want  string
	}{
		{"rtt_ms", []string{"site", "s0"}, `rtt_ms{site="s0"}`},
		{"rtt_ms", []string{"site", "s0", "outcome", "commit"}, `rtt_ms{site="s0",outcome="commit"}`},
		{"m", []string{"k", `a"b`}, `m{k="a\"b"}`},
		{"m", []string{"k", `a\b`}, `m{k="a\\b"}`},
		{"m", []string{"k", "a\nb"}, `m{k="a\nb"}`},
		{"m", nil, "m"},
	}
	for _, c := range cases {
		if got := Label(c.base, c.pairs...); got != c.want {
			t.Errorf("Label(%q, %v) = %q, want %q", c.base, c.pairs, got, c.want)
		}
	}
}

func TestLabelOddPairsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Label with odd pairs did not panic")
		}
	}()
	Label("m", "k")
}

func TestWriteTextLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("req_total", "site", "s1")).Add(2)
	r.Counter(Label("req_total", "site", "s0")).Add(5)
	r.Counter(Label("req_total", "site", `we"ird\sí`+"\n")).Inc()
	h := r.Histogram(Label("rtt_ms", "site", "s0"))
	h.Observe(4)
	r.SetHelp("req_total", "requests per site")
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP req_total requests per site
# TYPE req_total counter
req_total{site="s0"} 5
req_total{site="s1"} 2
req_total{site="we\"ird\\sí\n"} 1
# TYPE rtt_ms summary
rtt_ms{site="s0",quantile="0.5"} 4
rtt_ms{site="s0",quantile="0.9"} 4
rtt_ms{site="s0",quantile="0.99"} 4
rtt_ms_sum{site="s0"} 4
rtt_ms_count{site="s0"} 1
`
	if got := sb.String(); got != want {
		t.Fatalf("WriteText mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteTextHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.SetHelp("c", "line one\nback\\slash")
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP c line one\\nback\\\\slash\n# TYPE c counter\nc 1\n"
	if got := sb.String(); got != want {
		t.Fatalf("help escaping:\ngot:  %q\nwant: %q", got, want)
	}
}

func TestWriteTextMalformedLabelBlockFallsBack(t *testing.T) {
	// A brace-bearing name whose block does not parse as k="v" pairs is
	// sanitized wholesale, the pre-label behavior.
	r := NewRegistry()
	r.Counter(`m{oops}`).Inc()
	r.Counter(`m{k="bad\qescape"}`).Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"m_oops_ 1", "m_k__bad_qescape__ 1"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("fallback sample %q missing from:\n%s", want, sb.String())
		}
	}
}

func TestParseLabelsRoundTrip(t *testing.T) {
	raw := `site="s0",k="a\"b\\c\nd"`
	pairs, ok := parseLabels(raw)
	if !ok {
		t.Fatalf("parseLabels(%q) failed", raw)
	}
	if len(pairs) != 2 || pairs[0] != (labelPair{"site", "s0"}) || pairs[1] != (labelPair{"k", "a\"b\\c\nd"}) {
		t.Fatalf("pairs = %+v", pairs)
	}
	if got := renderLabels(pairs); got != "{"+raw+"}" {
		t.Fatalf("round trip = %q, want %q", got, "{"+raw+"}")
	}
	for _, bad := range []string{`k`, `k=`, `k="v`, `k="v",`, `k="a\zb"`, `="v"`} {
		if _, ok := parseLabels(bad); ok {
			t.Errorf("parseLabels(%q) accepted malformed input", bad)
		}
	}
}

// TestWriteTextConcurrentWithObserve races live scrapes against observers
// on every instrument kind; run under -race this pins that a scrape while
// the cluster is hot is safe.
func TestWriteTextConcurrentWithObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Label("ops_total", "site", "s0"))
	g := r.Gauge("inflight")
	h := r.Histogram(Label("rtt_ms", "site", "s0"))
	r.SetHelp("rtt_ms", "round trip")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Add(int64(i - 2))
				h.Observe(float64(j % 17))
				// New series appearing mid-scrape must also be safe.
				r.Counter(Label("late_total", "w", string(rune('a'+i)))).Inc()
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), `ops_total{site="s0"}`) {
			t.Fatalf("scrape missing series:\n%s", sb.String())
		}
	}
	close(stop)
	wg.Wait()
}

// TestScrapeReadsHistogramAtOneInstant: a scrape's _sum and _count, and a
// Snapshot's fields, come from the same instant while an observer runs.
// Every sample of ones is 1.0, so _sum must equal _count; samples of seq
// are 1, 2, ..., n, so a Snapshot's Max must equal its Count.
func TestScrapeReadsHistogramAtOneInstant(t *testing.T) {
	r := NewRegistry()
	ones := r.Histogram("ones_ms")
	seq := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ones.Observe(1.0)
			seq.Observe(float64(i))
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for ones.Count() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		var sum float64
		var count int
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "ones_ms_sum "); ok {
				sum, _ = strconv.ParseFloat(v, 64)
			}
			if v, ok := strings.CutPrefix(line, "ones_ms_count "); ok {
				count, _ = strconv.Atoi(v)
			}
		}
		if sum != float64(count) {
			t.Fatalf("scrape %d: ones_ms_sum %g, ones_ms_count %d", i, sum, count)
		}
		snap := seq.Snapshot()
		if snap.Max < snap.P99 || snap.P99 < snap.P50 {
			t.Fatalf("snapshot %d out of order: %+v", i, snap)
		}
		if snap.Max != float64(snap.Count) || (snap.Count > 0 && snap.Mean != float64(snap.Count+1)/2) {
			t.Fatalf("snapshot %d: count %d does not match its samples: %+v", i, snap.Count, snap)
		}
	}
}

// TestHistogramQuantilePins pins arbitrary-p interpolation behavior the
// live table of o2pc-coord's load mode relies on.
func TestHistogramQuantilePins(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	cases := map[float64]float64{
		0:    1,
		0.5:  5.5,
		0.75: 7.75,
		0.9:  9.1,
		0.99: 9.91,
		1:    10,
	}
	for q, want := range cases {
		got := h.Quantile(q)
		if (q == 0 || q == 1) && got != want {
			t.Errorf("Quantile(%v) = %v, want exactly %v", q, got, want)
		}
		if !within(got, want) {
			t.Errorf("Quantile(%v) = %v, want %v within 1/128", q, got, want)
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		"a.b-c d":      "a_b_c_d",
		"9lead":        "_lead",
		"ok_name:sub9": "ok_name:sub9",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
