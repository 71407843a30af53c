package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"o2pc/internal/coord"
	"o2pc/internal/proto"
)

// The two site names every workload uses. Subtransactions always ship in
// this order, so every transaction takes its s0 locks before its s1 locks
// and no distributed deadlock can form: contention shows as lock waits, not
// as lock-timeout aborts.
var siteNames = []string{"s0", "s1"}

// fundPerAccount is the opening balance of every account: large enough that
// no AddMin(-x, 0) of a generated transfer can ever refuse.
const fundPerAccount int64 = 1_000_000_000

// mix is the part of a workload the generator sees. hot-2pc and hot-o2pc
// share one mix, which is what makes their input streams byte-identical.
type mix struct {
	accounts int     // accounts per site that transfers and reads spread over
	hotFrac  float64 // share of transfers that use account 0 at both sites
	doomFrac float64 // share of transfers one site votes NO on
	readFrac float64 // share of transactions that are read-only
	readKeys int     // accounts a read-only transaction reads at each site
}

// workload is one named traffic mix plus the cluster it runs on.
type workload struct {
	name     string
	why      string // must equal BENCHMARK.json's line for the workload
	protocol proto.Protocol
	marking  proto.MarkProtocol
	fileWAL  bool // file WALs with real fsync at the sites and the decision log
	replicas int  // decision-log replicas (Paxos Commit only)
	mix      mix
}

var (
	uniformMix = mix{accounts: 4096}
	hotMix     = mix{accounts: 65, hotFrac: 0.6, doomFrac: 0.05}
	readMix    = mix{accounts: 64, readFrac: 0.7, readKeys: 8}
)

// workloads is the benchmark's fixed workload set. Names are final: later
// issues cite them.
var workloads = []workload{
	{
		name:     "durable",
		why:      "O2PC+P1 over file WALs with real fsync, uniform transfers, no conflicts: wal sync, rpc frames and proto codec set the time; disk-bound like paxos, the pair whose noise sets the 25% bounds",
		protocol: proto.O2PC, marking: proto.MarkP1, fileWAL: true, mix: uniformMix,
	},
	{
		name:     "hot-2pc",
		why:      "2PC, memory WALs, 60% of transfers on one hot account, 5% doomed: X locks held across the decision round, lock wait dominates",
		protocol: proto.TwoPC, marking: proto.MarkNone, mix: hotMix,
	},
	{
		name:     "hot-o2pc",
		why:      "the byte-identical hot-2pc stream under O2PC+P1: locks released at the vote, compensation and R1 marking for the doomed 5%",
		protocol: proto.O2PC, marking: proto.MarkP1, mix: hotMix,
	},
	{
		name:     "readmix",
		why:      "O2PC+P1, memory WALs, 70% read-only transactions of 16 reads beside 30% transfers on 64 accounts: S/X conflicts, read-only votes",
		protocol: proto.O2PC, marking: proto.MarkP1, mix: readMix,
	},
	{
		name:     "paxos",
		why:      "the durable stream under Paxos Commit with three file-backed replicas: the decision is a majority ballot, the only replog workload",
		protocol: proto.Paxos, marking: proto.MarkNone, fileWAL: true, replicas: 3, mix: uniformMix,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func accountKey(i int) string { return "a" + strconv.Itoa(i) }

// genTxn is one generated transaction: the subtransactions to ship (the
// protocol and marking are the workload's, not the generator's) and the
// outcome the generator meant it to have.
type genTxn struct {
	base   string
	subs   []coord.SubtxnSpec
	noSite string // the site that votes NO; "" unless the transaction is doomed
}

// doomed reports whether some site votes NO: the transaction must abort.
func (t genTxn) doomed() bool { return t.noSite != "" }

// id returns the transaction ID of the given attempt (0 for the first). A
// retry needs a fresh ID because sites fence the IDs of decided
// transactions; a doomed transaction's ID ends in the NO voter's suffix.
func (t genTxn) id(attempt int) string {
	id := t.base
	if attempt > 0 {
		id += "~" + strconv.Itoa(attempt)
	}
	if t.doomed() {
		id += doomSuffix(t.noSite)
	}
	return id
}

// doomSuffix marks a doomed transaction's ID with the site that must vote
// NO; the node role installs a vote-abort injector that looks for it. A NO
// vote is the only way to reach compensation on a live cluster: the other
// site has already voted YES and, under O2PC, exposed its updates.
func doomSuffix(site string) string { return "!" + site }

// txnGen is one client's seeded transaction stream. The driver owns it; the
// nodes see only the TxnSpecs it produces.
type txnGen struct {
	rng    *rand.Rand
	mix    mix
	client int
	seq    int
}

func newTxnGen(m mix, seed int64, client int) *txnGen {
	// Distinct odd multipliers keep the clients' streams apart for every seed.
	return &txnGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919)), mix: m, client: client}
}

func (g *txnGen) next() genTxn {
	g.seq++
	t := genTxn{base: fmt.Sprintf("c%d-%d", g.client, g.seq)}
	if g.rng.Float64() < g.mix.readFrac {
		t.subs = g.readOnly()
		return t
	}
	acct := 0
	if g.rng.Float64() >= g.mix.hotFrac {
		// Cold accounts are 1..accounts-1 when there is a hot one, else all.
		lo := 0
		if g.mix.hotFrac > 0 {
			lo = 1
		}
		acct = lo + g.rng.Intn(g.mix.accounts-lo)
	}
	from := g.rng.Intn(2)
	amount := int64(1 + g.rng.Intn(25))
	if g.rng.Float64() < g.mix.doomFrac {
		t.noSite = siteNames[g.rng.Intn(2)]
	}
	key := accountKey(acct)
	for i, site := range siteNames {
		op := proto.Add(key, amount)
		if i == from {
			op = proto.AddMin(key, -amount, 0)
		}
		t.subs = append(t.subs, coord.SubtxnSpec{Site: site, Ops: []proto.Operation{op}, Comp: proto.CompSemantic})
	}
	return t
}

// readOnly builds a transaction reading readKeys distinct accounts at each
// site, in key order so two readers never take their S locks crosswise.
func (g *txnGen) readOnly() []coord.SubtxnSpec {
	subs := make([]coord.SubtxnSpec, 0, len(siteNames))
	for _, site := range siteNames {
		picks := g.rng.Perm(g.mix.accounts)[:g.mix.readKeys]
		sort.Ints(picks)
		ops := make([]proto.Operation, len(picks))
		for i, a := range picks {
			ops[i] = proto.Read(accountKey(a))
		}
		subs = append(subs, coord.SubtxnSpec{Site: site, Ops: ops, Comp: proto.CompSemantic})
	}
	return subs
}
