package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/lock"
	"o2pc/internal/marking"
	"o2pc/internal/proto"
	"o2pc/internal/sim"
	"o2pc/internal/storage"
	"o2pc/internal/txn"
	"o2pc/internal/wal"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean accumulates an arithmetic mean.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) { m.sum += v; m.n++ }
func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// snapMetrics derives the per-layer figures that come from the Stats()
// snapshots: d is the change over the measured window summed over all
// processes, n the committed transactions.
func snapMetrics(d snap, n float64, v map[string]float64) {
	v["lock.waits"] = d["lock.waits"] / n
	v["lock.deadlocks"] = d["lock.deadlocks"] / n
	v["lock.wait_ms"] = d.mean("lock.wait_ms")
	v["lock.hold_x_ms"] = d.mean("lock.hold_x_ms")
	v["lock.hold_s_ms"] = d.mean("lock.hold_s_ms")
	v["marking.rejects_retry"] = d["site.rejects_retry"] / n
	v["marking.rejects_fatal"] = d["site.rejects_fatal"] / n
	v["compensate.runs"] = d["site.compensations"] / n
	v["compensate.run_ms"] = d.mean("site.compensation_ms")
	v["site.exposure_ms"] = d.mean("site.exposure_ms")
	v["replog.ballots"] = d["replog.ballots"] / n
	v["replog.ballot_ms"] = d.mean("replog.ballot_ms")
	v["wal.bytes"] = d["wal.file_bytes"] / n
	v["runtime.allocs"] = d["rt.mallocs"] / n
	if d["rt.busy_cpu_s"] > 0 {
		v["runtime.gc_cpu_frac"] = d["rt.gc_cpu_s"] / d["rt.busy_cpu_s"]
	}
}

// kindStats are the per-call means of one message kind.
type kindStats struct {
	calls      int
	wire       mean // call span minus its handler span, us
	handleSelf mean // handler span minus the WAL spans inside it, us
	handleWAL  mean // WAL time inside the handler span, us
}

// spanMetrics reads the per-layer figures off a merged, parent-linked span
// set, restricted to the measured window [from, to], and stores them in v.
// Everything is per committed transaction unless it is a per-call mean.
func spanMetrics(spans []span, from, to int64, v map[string]float64) {
	inWindow := func(s span) bool { return s.Start >= from && s.Start <= to }
	byID := make(map[int64]span, len(spans))
	roots := make(map[int64]bool) // committed coord.run spans in the window
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == spanRun && inWindow(s) && s.Note == "committed" {
			roots[s.ID] = true
		}
	}
	n := float64(len(roots))
	if n == 0 {
		return
	}

	// Coordinator phases: what of each committed Run its children cover.
	// Exec calls are sequential, votes and decisions fan out (covered counts
	// an overlap once), Begin and Decide are the decision-log steps. The
	// phases do not overlap each other, so with self = run - the four, the
	// five sum to the mean coord.Run by construction.
	phaseOf := func(s span) string {
		switch {
		case s.Name == spanCall && s.Kind == "exec":
			return "exec"
		case s.Name == spanCall && s.Kind == "vote":
			return "vote"
		case s.Name == spanCall && s.Kind == "decision":
			return "ack"
		case s.Name == spanBegin || s.Name == spanDecide:
			return "decide"
		}
		return ""
	}
	type rootKey struct {
		root  int64
		phase string
	}
	phaseIntervals := make(map[rootKey][][2]int64)
	for _, s := range spans {
		if ph := phaseOf(s); ph != "" && roots[s.Parent] {
			k := rootKey{s.Parent, ph}
			phaseIntervals[k] = append(phaseIntervals[k], [2]int64{s.Start, s.End})
		}
	}
	var run time.Duration
	phaseSum := make(map[string]time.Duration)
	for id := range roots {
		r := byID[id]
		run += r.dur()
		for _, ph := range []string{"exec", "vote", "decide", "ack"} {
			phaseSum[ph] += time.Duration(covered(r.Start, r.End, phaseIntervals[rootKey{id, ph}]))
		}
	}
	self := run
	for _, ph := range []string{"exec", "vote", "decide", "ack"} {
		v["coord."+ph+"_ms"] = ms(phaseSum[ph]) / n
		self -= phaseSum[ph]
	}
	v["coord.self_ms"] = ms(self) / n
	v["coord.run_ms"] = ms(run) / n

	// Transport and handlers, by message kind.
	selfOf := selfTimes(spans)
	kinds := make(map[string]*kindStats)
	kindOf := func(k string) *kindStats {
		if kinds[k] == nil {
			kinds[k] = &kindStats{}
		}
		return kinds[k]
	}
	var wireAll mean
	calls := 0
	for _, s := range spans {
		if !inWindow(s) {
			continue
		}
		switch s.Name {
		case spanCall:
			calls++
			kindOf(s.Kind).calls++
		case spanHandle:
			ks := kindOf(s.Kind)
			ks.handleSelf.add(us(selfOf[s.ID]))
			ks.handleWAL.add(us(s.dur() - selfOf[s.ID]))
			if call, ok := byID[s.Parent]; ok && s.Parent != 0 {
				ks.wire.add(us(call.dur() - s.dur()))
				wireAll.add(us(call.dur() - s.dur()))
			}
		}
	}
	v["rpc.msgs"] = 2 * float64(calls) / n // every call is a request and a reply
	v["rpc.wire_us"] = wireAll.value()
	for _, k := range []string{"exec", "vote", "decision"} {
		ks := kindOf(k)
		v["rpc.wire_"+k+"_us"] = ks.wire.value()
		v["site.handle_"+k+"_us"] = ks.handleSelf.value()
		v["site.wal_in_"+k+"_us"] = ks.handleWAL.value()
	}
	for k, ks := range kinds {
		v["rpc.calls."+k] = float64(ks.calls) / n
	}

	// WAL, split between the transaction path (sites and the coordinator's
	// decision log) and the decision-log replicas.
	var appendUs, syncUs, repSyncUs mean
	for _, s := range spans {
		if !inWindow(s) {
			continue
		}
		switch {
		case s.Name == spanAppend && s.Proc != "rep":
			appendUs.add(us(s.dur()))
		case s.Name == spanSync && s.Proc != "rep":
			syncUs.add(us(s.dur()))
		case s.Name == spanSync:
			repSyncUs.add(us(s.dur()))
		}
	}
	v["wal.appends"] = float64(appendUs.n) / n
	v["wal.syncs"] = float64(syncUs.n) / n
	v["wal.append_us"] = appendUs.value()
	v["wal.sync_us"] = syncUs.value()
	v["replog.sync_us"] = repSyncUs.value()
}

// isolatedBudget is how long each isolated timing loop runs.
const isolatedBudget = 100 * time.Millisecond

// timeLoop runs op repeatedly for about isolatedBudget and returns the mean
// time of one call in microseconds.
func timeLoop(clock sim.Clock, op func(i int)) float64 {
	start := clock.Now()
	i := 0
	for ; i%64 != 0 || clock.Since(start) < isolatedBudget; i++ {
		op(i)
	}
	return us(clock.Since(start)) / float64(i)
}

// isolatedMetrics times single layers alone, through their public functions,
// on inputs taken from the run: the codec over messages sampled from the
// transport, the lock manager over the workload's key stream, a local
// transaction of the workload's write count, and the R1 check at the
// marking-set size the sites ended with.
func isolatedMetrics(o runOpts, samples map[string][]any, d snap, v map[string]float64) {
	clock := sim.Real()
	ctx := context.Background()

	// proto: per kind, the cost of one call's request plus reply, weighted by
	// how many calls of that kind a committed transaction made.
	var buf []byte
	for kind, msgs := range samples {
		pairs := float64(len(msgs)) / 2
		encoded := make([][]byte, len(msgs))
		bytes := 0
		for i, m := range msgs {
			//o2pcvet:ignore errflow -- these messages crossed the wire once already; an unencodable one cannot be here
			encoded[i], _ = proto.AppendMessage(nil, m)
			bytes += len(encoded[i])
		}
		enc := timeLoop(clock, func(i int) {
			//o2pcvet:ignore errflow -- see above
			buf, _ = proto.AppendMessage(buf[:0], msgs[i%len(msgs)])
		})
		dec := timeLoop(clock, func(i int) {
			//o2pcvet:ignore errflow -- decoding bytes AppendMessage just produced
			_, _ = proto.DecodeMessage(encoded[i%len(encoded)])
		})
		perTxn := v["rpc.calls."+kind]
		v["proto.bytes"] += perTxn * float64(bytes) / pairs
		v["proto.encode_us"] += perTxn * 2 * enc
		v["proto.decode_us"] += perTxn * 2 * dec
	}

	// lock: one exclusive acquire and release per subtransaction key.
	locks := lock.NewManager()
	gen := newTxnGen(o.w.mix, o.seed, 0)
	var keys []storage.Key
	for len(keys) < 4096 {
		for _, st := range gen.next().subs {
			for _, op := range st.Ops {
				keys = append(keys, storage.Key(op.Key))
			}
		}
	}
	v["lock.acquire_release_us"] = timeLoop(clock, func(i int) {
		id := "iso" + strconv.Itoa(i)
		//o2pcvet:ignore errflow -- a fresh manager with one transaction at a time never waits, so never fails
		_ = locks.Acquire(ctx, id, keys[i%len(keys)], lock.Exclusive)
		locks.ReleaseAll(id)
	})

	// txn: Begin, the writes one transfer makes at a site, Commit.
	mgr := txn.NewManager("iso", storage.NewStore(), lock.NewManager(), wal.NewMemoryLog(), nil)
	v["txn.commit_us"] = timeLoop(clock, func(i int) {
		t, err := mgr.Begin("iso"+strconv.Itoa(i), history.KindGlobal, "")
		if err == nil {
			err = t.WriteInt64(ctx, keys[i%len(keys)], int64(i))
		}
		if err == nil {
			err = t.Commit()
		}
		if err != nil {
			panic(fmt.Sprintf("isolated txn loop: %v", err)) // a bug: nothing contends here
		}
	})

	// marking: the R1 check against a site holding as many undone marks as
	// the sites held at window end (both sites' mean), carried in full.
	marks := make([]string, int(d["site.marks"])/len(siteNames))
	for i := range marks {
		marks[i] = "c0-" + strconv.Itoa(i) + doomSuffix("s0")
	}
	v["marking.compatible_us"] = timeLoop(clock, func(int) { marking.Compatible(marks, true, marks) })
	v["marking.set_size"] = float64(len(marks))
}

// budgetRow is one line of the cost budget: how often a step runs per
// committed transaction and what one run of it costs.
type budgetRow struct {
	what  string
	calls float64 // per committed transaction
	us    float64 // per call
}

func (r budgetRow) total() float64 { return r.calls * r.us }

// budget sets the isolated and per-call figures against the span means, one
// block per question, each with its unexplained remainder as its own row.
type budget struct {
	runUs float64
	path  []budgetRow // steps on one transaction's critical path
	wire  []budgetRow // what the codec explains of the wire time
	site  []budgetRow // what isolated layers explain of handler self time
	// wireUs and siteUs are the span totals the wire and site blocks explain.
	wireUs, siteUs float64
}

// newBudget assembles the budget from a traced run's metrics v, the window's
// snapshot delta d and the committed count n.
func newBudget(v map[string]float64, d snap, n float64) *budget {
	b := &budget{runUs: v["coord.run_ms"] * 1000}
	calls := func(k string) float64 { return v["rpc.calls."+k] }
	b.path = append(b.path, budgetRow{"coord: self (run minus its calls)", 1, v["coord.self_ms"] * 1000})
	// Exec calls run one after the other; votes and decisions go to both
	// sites at once, so one of each pair is on the path.
	for _, ph := range []struct {
		kind   string
		onPath float64
	}{{"exec", calls("exec")}, {"vote", calls("vote") / 2}, {"decision", calls("decision") / 2}} {
		b.path = append(b.path,
			budgetRow{"rpc: wire, " + ph.kind, ph.onPath, v["rpc.wire_"+ph.kind+"_us"]},
			budgetRow{"site: handle " + ph.kind + " (self)", ph.onPath, v["site.handle_"+ph.kind+"_us"]},
			budgetRow{"wal: inside handle " + ph.kind, ph.onPath, v["site.wal_in_"+ph.kind+"_us"]})
		if ph.kind == "vote" {
			b.path = append(b.path, budgetRow{"coord: decision log (begin+decide)", 1, v["coord.decide_ms"] * 1000})
		}
	}

	allCalls := v["rpc.msgs"] / 2
	b.wireUs = allCalls * v["rpc.wire_us"]
	b.wire = []budgetRow{
		{"proto: encode (isolated)", v["rpc.msgs"], v["proto.encode_us"] / v["rpc.msgs"]},
		{"proto: decode (isolated)", v["rpc.msgs"], v["proto.decode_us"] / v["rpc.msgs"]},
	}

	for _, k := range []string{"exec", "vote", "decision"} {
		b.siteUs += calls(k) * v["site.handle_"+k+"_us"]
	}
	b.site = []budgetRow{
		{"lock: acquire+release (isolated)", d["lock.acquisitions"] / n, v["lock.acquire_release_us"]},
		{"lock: wait", v["lock.waits"], v["lock.wait_ms"] * 1000},
		{"txn: begin+write+commit (isolated)", d["site.execs"] / n, v["txn.commit_us"]},
		{"marking: compatible (isolated)", d["site.execs"] / n * 2, v["marking.compatible_us"]},
		{"compensate: run", v["compensate.runs"], v["compensate.run_ms"] * 1000},
	}
	return b
}

// print writes the budget table.
func (b *budget) print(w io.Writer, name string) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	block := func(title string, rows []budgetRow, total float64, totalLabel string) {
		fmt.Fprintf(tw, "%s\tcalls/txn\tus/call\tus/txn\t\n", title)
		explained := 0.0
		for _, r := range rows {
			fmt.Fprintf(tw, "  %s\t%.2f\t%.1f\t%.1f\t\n", r.what, r.calls, r.us, r.total())
			explained += r.total()
		}
		fmt.Fprintf(tw, "  unexplained remainder\t\t\t%.1f\t\n", total-explained)
		fmt.Fprintf(tw, "  %s\t\t\t%.1f\t\n", totalLabel, total)
	}
	fmt.Fprintf(tw, "budget %s\t\t\t\t\n", name)
	block("critical path of one committed transaction", b.path, b.runUs, "= mean coord.Run (span)")
	block("inside the wire time", b.wire, b.wireUs, "= wire time of all calls (spans)")
	block("inside the handlers' self time", b.site, b.siteUs, "= handler self time (spans)")
	//o2pcvet:ignore errflow -- a table on stdout; a failed write has no one to report to
	_ = tw.Flush()
}
