package coord

import (
	"net"
	"testing"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/site"
	"o2pc/internal/storage"
)

// TestTCPEndToEnd deploys two sites and a coordinator over real TCP
// sockets and runs commit and compensation flows through them — the same
// wiring cmd/o2pc-site and cmd/o2pc-coord use.
func TestTCPEndToEnd(t *testing.T) {
	rec := history.NewRecorder()

	addrs := map[string]string{}
	var servers []*rpc.Server
	var sites []*site.Site
	for _, name := range []string{"s0", "s1"} {
		s := site.NewSite(site.Config{Name: name, Recorder: rec, ResolvePeriod: 5 * time.Millisecond})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := rpc.NewServer(name, s.Handle)
		go srv.Serve(ln)
		addrs[name] = ln.Addr().String()
		servers = append(servers, srv)
		sites = append(sites, s)
		s.SeedInt64("acct", 100)
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	// Coordinator with its own listener for Resolve inquiries.
	client := rpc.NewTCPClient(addrs)
	defer client.Close()
	c := New(Config{Name: "c0", Recorder: rec}, client)
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	csrv := rpc.NewServer("c0", c.Handle)
	go csrv.Serve(cln)
	defer csrv.Close()
	for _, s := range sites {
		s.SetCaller(rpc.NewTCPClient(map[string]string{"c0": cln.Addr().String()}))
	}

	// Committed transfer over TCP.
	res := c.Run(bg(), TxnSpec{
		Protocol: proto.O2PC, Marking: proto.MarkP1,
		Subtxns: []SubtxnSpec{
			{Site: "s0", Ops: []proto.Operation{proto.AddMin("acct", -30, 0)}, Comp: proto.CompSemantic},
			{Site: "s1", Ops: []proto.Operation{proto.Add("acct", 30), proto.Read("acct")}, Comp: proto.CompSemantic},
		},
	})
	if !res.Committed() {
		t.Fatalf("TCP transfer failed: %v (%v)", res.Outcome, res.Err)
	}
	if v := res.Reads["s1"]["acct"]; storage.MustDecodeInt64(v) != 130 {
		t.Fatalf("read-back = %v", v)
	}
	if sites[0].ReadInt64("acct") != 70 {
		t.Fatalf("s0 acct = %d", sites[0].ReadInt64("acct"))
	}

	// Doomed transfer: compensation over TCP.
	sites[1].SetVoteAbortInjector(func(id string) bool { return id == "Tno" })
	res = c.Run(bg(), TxnSpec{
		ID: "Tno", Protocol: proto.O2PC, Marking: proto.MarkP1,
		Subtxns: []SubtxnSpec{
			{Site: "s0", Ops: []proto.Operation{proto.AddMin("acct", -30, 0)}, Comp: proto.CompSemantic},
			{Site: "s1", Ops: []proto.Operation{proto.Add("acct", 30)}, Comp: proto.CompSemantic},
		},
	})
	if res.Committed() {
		t.Fatalf("doomed TCP transfer committed")
	}
	deadline := time.Now().Add(2 * time.Second)
	for sites[0].ReadInt64("acct") != 70 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sites[0].ReadInt64("acct"); got != 70 {
		t.Fatalf("s0 acct = %d after compensation, want 70", got)
	}
	if got := sites[1].ReadInt64("acct"); got != 130 {
		t.Fatalf("s1 acct = %d after rollback, want 130", got)
	}
}
