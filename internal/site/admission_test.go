package site

import (
	"testing"
	"time"

	"o2pc/internal/lock"
	"o2pc/internal/proto"
)

// TestAdmissionPaths pins rule R1 admission on both exec paths — a one-shot
// exec (Round 0) and a continuation round of a session subtransaction
// already open at the site — each admitted, rejected retryably, rejected
// fatally, and failing the revalidation that runs as the exec's last
// action. A failed one-shot exec is rolled back: no locks, no pending
// entry. A failed continuation leaves the open subtransaction, its data
// locks and its pending entry, for the coordinator's abort. Neither keeps
// the marking-set lock under the default early-revalidate strategy.
func TestAdmissionPaths(t *testing.T) {
	const id = "T2"
	for _, round := range []int{0, 2} {
		path := "one-shot"
		if round > 0 {
			path = "continuation"
		}
		for _, tc := range []struct {
			name       string
			marks      []string // the site's undone marks when the exec arrives
			transMarks []string
			visited    bool
			// markDuring marks the site while the exec waits for a data lock:
			// after the R1 check admitted it, before its revalidation.
			markDuring bool

			ok, fatal                   bool
			retry, fatalRej, revalidate int64
		}{
			{name: "admit", ok: true},
			{name: "retryable", transMarks: []string{"T1"}, visited: true, retry: 1},
			{name: "fatal", marks: []string{"T1"}, visited: true, fatal: true, fatalRej: 1},
			{name: "revalidation", markDuring: true, fatal: true, revalidate: 1},
		} {
			t.Run(path+"/"+tc.name, func(t *testing.T) {
				s := newTestSite(t, Config{})
				s.SeedInt64("m", 0)
				s.SeedInt64("n", 0)
				req := o2pcReq(id, proto.Add("n", 1))
				req.TransMarks = tc.transMarks
				req.Visited = tc.visited
				if round > 0 {
					// Round 1 opens the subtransaction at this site; the round
					// under test continues it.
					first := o2pcReq(id, proto.Add("m", 1))
					first.Round = 1
					if reply := exec(t, s, first); !reply.OK {
						t.Fatalf("round 1: %+v", reply)
					}
					req.Round = round
					req.Visited = true
				}
				for _, m := range tc.marks {
					s.Marks().MarkUndone(m)
				}

				var reply proto.ExecReply
				if tc.markDuring {
					reply = execWhileMarking(t, s, req, "T9")
				} else {
					reply = exec(t, s, req)
				}

				if reply.OK != tc.ok || reply.Rejected != !tc.ok || reply.Fatal != tc.fatal {
					t.Fatalf("reply = %+v, want ok=%v fatal=%v", reply, tc.ok, tc.fatal)
				}
				open := tc.ok || round > 0
				if got := s.Manager().Locks().HoldsAny(id); got != open {
					t.Errorf("data locks held = %v, want %v", got, open)
				}
				if _, held := s.Manager().Locks().Held(id)[MarkKey]; held {
					t.Errorf("marking-set lock outlived the exec")
				}
				s.mu.Lock()
				_, pendingEntry := s.pend[id]
				s.mu.Unlock()
				if pendingEntry != open {
					t.Errorf("pending entry present = %v, want %v", pendingEntry, open)
				}
				var readmit int64
				if round > 0 && !tc.ok {
					readmit = 1
				}
				st := s.Stats()
				for _, c := range []struct {
					name      string
					got, want int64
				}{
					{"RejectsRetry", st.RejectsRetry.Value(), tc.retry},
					{"RejectsFatal", st.RejectsFatal.Value(), tc.fatalRej},
					{"RevalidateFail", st.RevalidateFail.Value(), tc.revalidate},
					{"ReadmitRejects", st.ReadmitRejects.Value(), readmit},
				} {
					if c.got != c.want {
						t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
					}
				}
			})
		}
	}
}

// execWhileMarking ships req, whose operations touch key "n", while another
// holder keeps "n" locked; once the exec waits for that lock the site is
// marked undone with respect to mark, and the lock is released.
func execWhileMarking(t *testing.T, s *Site, req proto.ExecRequest, mark string) proto.ExecReply {
	t.Helper()
	locks := s.Manager().Locks()
	if err := locks.Acquire(bg(), "blocker", "n", lock.Exclusive); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	done := make(chan proto.ExecReply, 1)
	go func() {
		raw, err := s.Handle(bg(), "c0", req)
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		reply, _ := raw.(proto.ExecReply)
		done <- reply
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(locks.WaitsFor()[req.TxnID]) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("exec never waited for the blocker's lock")
		}
		time.Sleep(time.Millisecond)
	}
	s.Marks().MarkUndone(mark)
	locks.Release("blocker", "n")
	return <-done
}
