package main

import (
	"errors"
	"strings"
	"testing"

	"gaugur/internal/sched/fleet"
	"gaugur/internal/serve"
)

// consistent books three sessions (games 7, 7, 9 on servers 0, 0, 2) and
// returns the ledger with the fleet view that agrees with it.
func consistent() (*ledger, fleetView) {
	l := newLedger(3)
	l.admitted(0, 7, fleet.Placement{Session: 10, Server: 0, Seq: 0}, nil, true)
	l.admitted(1, 7, fleet.Placement{Session: 11, Server: 0, Seq: 1}, nil, true)
	l.admitted(2, 9, fleet.Placement{Session: 12, Server: 2, Seq: 2}, nil, true)
	v := fleetView{
		stats:   fleet.Stats{Placed: 3, Active: 3},
		servers: [][]int{{7, 7}, nil, {9}, nil},
	}
	return l, v
}

func mustFail(t *testing.T, l *ledger, v fleetView, want string) {
	t.Helper()
	got := l.check(v)
	for _, g := range got {
		if strings.Contains(g, want) {
			return
		}
	}
	t.Fatalf("gate did not report %q; got %q", want, got)
}

func TestGatePassesConsistentState(t *testing.T) {
	l, v := consistent()
	l.left(11, nil)
	v.stats.Removed, v.stats.Active = 1, 2
	v.servers[0] = []int{7}
	if got := l.check(v); len(got) > 0 {
		t.Fatalf("consistent state failed the gate: %q", got)
	}
	if l.attempted != 4 || l.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 4 and 0", l.attempted, l.failed)
	}
}

func TestGateRejectsDoubleBookedSession(t *testing.T) {
	l, v := consistent()
	v.servers[3] = []int{9} // session 12 also shows up on server 3
	mustFail(t, l, v, "server 3 hosts games [9], the generator placed []")
	mustFail(t, l, v, "snapshot hosts 4 sessions")
}

func TestGateRejectsReusedSessionID(t *testing.T) {
	l, v := consistent()
	l.admitted(-1, 9, fleet.Placement{Session: 12, Server: 2, Seq: 3}, nil, true)
	mustFail(t, l, v, "session 12 handed out twice")
}

func TestGateRejectsOverfullServer(t *testing.T) {
	l, v := consistent()
	v.servers[0] = []int{7, 7, 7, 7, 7}
	mustFail(t, l, v, "server 0 holds 5 sessions, cap 4")
}

func TestGateRejectsCounterMismatch(t *testing.T) {
	l, v := consistent()
	v.stats.Removed = 1
	mustFail(t, l, v, "placed 3 - removed 1 != active 3")
	l, v = consistent()
	v.stats.Placed, v.stats.Active = 4, 4
	mustFail(t, l, v, "fleet holds 4 sessions, the generator counts 3 live")
}

func TestGateRejectsSeqOutOfOrder(t *testing.T) {
	l, v := consistent()
	l.seqs[2].seq = 1
	mustFail(t, l, v, "Placement.Seq not strictly increasing")
}

func TestGateRejectsUndocumentedAnswer(t *testing.T) {
	l, v := consistent()
	l.left(99, errors.New("http 500: boom"))
	mustFail(t, l, v, "undocumented answer")
	// A documented refusal fails the op but not the gate.
	l, v = consistent()
	l.left(99, serve.ErrUnknownSession)
	if got := l.check(v); len(got) > 0 || l.failed != 1 {
		t.Fatalf("404 on leave: gate %q, failed %d", got, l.failed)
	}
}

func TestGateRejectsWrongModelError(t *testing.T) {
	if got := checkRMError(0.1154); len(got) > 0 {
		t.Fatalf("Figure 7b error rejected: %q", got)
	}
	if got := checkRMError(0.13); len(got) == 0 {
		t.Fatal("RM error 0.13 passed the gate")
	}
}
