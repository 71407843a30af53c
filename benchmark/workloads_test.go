package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"o2pc/internal/proto"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(w.mix, 7, clients, 400), streamHash(w.mix, 7, clients, 400)
		if a != b {
			t.Errorf("%s: the same seed gave two streams (%x, %x)", w.name, a, b)
		}
		if c := streamHash(w.mix, 8, clients, 400); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestHotWorkloadsShareOneStream(t *testing.T) {
	tpc, _ := workloadByName("hot-2pc")
	o2pc, _ := workloadByName("hot-o2pc")
	if tpc.protocol == o2pc.protocol {
		t.Fatal("hot-2pc and hot-o2pc run the same protocol")
	}
	if a, b := streamHash(tpc.mix, 1, clients, 1000), streamHash(o2pc.mix, 1, clients, 1000); a != b {
		t.Errorf("hot-2pc and hot-o2pc consume different streams (%x, %x)", a, b)
	}
	durable, _ := workloadByName("durable")
	paxos, _ := workloadByName("paxos")
	if a, b := streamHash(durable.mix, 1, clients, 1000), streamHash(paxos.mix, 1, clients, 1000); a != b {
		t.Errorf("durable and paxos consume different streams (%x, %x)", a, b)
	}
}

func TestGeneratedMixes(t *testing.T) {
	const n = 20000
	g := newTxnGen(hotMix, 1, 0)
	hot, doomed := 0, 0
	for i := 0; i < n; i++ {
		tx := g.next()
		if len(tx.subs) != 2 || tx.subs[0].Site != "s0" || tx.subs[1].Site != "s1" {
			t.Fatalf("transfer not shipped in site-name order: %+v", tx.subs)
		}
		if tx.subs[0].Ops[0].Delta+tx.subs[1].Ops[0].Delta != 0 {
			t.Fatalf("transfer does not conserve money: %+v", tx.subs)
		}
		if tx.subs[0].Ops[0].Key == accountKey(0) {
			hot++
		}
		if tx.doomed() {
			doomed++
			if !strings.HasSuffix(tx.id(2), "~2"+doomSuffix(tx.noSite)) {
				t.Fatalf("retry ID %q does not end in the NO voter's suffix", tx.id(2))
			}
		}
	}
	if f := float64(hot) / n; f < 0.58 || f > 0.62 {
		t.Errorf("hot share %.3f, want about 0.60", f)
	}
	if f := float64(doomed) / n; f < 0.04 || f > 0.06 {
		t.Errorf("doomed share %.3f, want about 0.05", f)
	}

	g = newTxnGen(readMix, 1, 0)
	reads := 0
	for i := 0; i < n; i++ {
		tx := g.next()
		if tx.subs[0].Ops[0].Kind != proto.OpRead {
			continue
		}
		reads++
		for _, st := range tx.subs {
			if len(st.Ops) != readMix.readKeys {
				t.Fatalf("read-only subtransaction reads %d keys, want %d", len(st.Ops), readMix.readKeys)
			}
		}
	}
	if f := float64(reads) / n; f < 0.68 || f > 0.72 {
		t.Errorf("read-only share %.3f, want about 0.70", f)
	}
}

// BENCHMARK.json is the contract; the Go tables are what the program prints.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program prints %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := bf.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

// streamHash digests the first n transactions of every client's stream, to
// assert that a seed fixes the input and that two workloads
// consume the same input.
func streamHash(m mix, seed int64, clients, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		g := newTxnGen(m, seed, c)
		for i := 0; i < n; i++ {
			t := g.next()
			fmt.Fprintf(h, "%s|", t.id(0))
			for _, st := range t.subs {
				fmt.Fprintf(h, "%s:", st.Site)
				for _, op := range st.Ops {
					fmt.Fprintf(h, "%d,%s,%d,%v,%d;", op.Kind, op.Key, op.Delta, op.HasMin, op.Min)
				}
			}
		}
	}
	return h.Sum64()
}
