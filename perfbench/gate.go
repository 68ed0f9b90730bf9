package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"gaugur/internal/sched/fleet"
	"gaugur/internal/serve"
)

// sentinel reports whether err is one of the admission API's documented
// refusals (HTTP 429/503/409/404 and their binary statuses): a failed op,
// but a correct answer.
func sentinel(err error) bool {
	return errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrDraining) ||
		errors.Is(err, serve.ErrNoCapacity) || errors.Is(err, serve.ErrUnknownSession)
}

// placed is where the ledger believes a live session runs.
type placed struct{ server, game int }

type seqRec struct {
	session int
	seq     uint64
}

type opCounts struct{ placed, rejected, removed, queueFull int }

// ledger is the load generator's own account of every answer it got: the
// sessions it believes live, and every answer that breaks the API's
// contract. Safe for concurrent use.
type ledger struct {
	mu        sync.Mutex
	live      map[int]placed
	seen      map[int]bool
	slotSess  []int // open-loop slot -> session id (-1: none)
	ready     []chan struct{}
	seqs      []seqRec
	n         opCounts
	attempted int
	failed    int
	broken    []string
}

func newLedger(slots int) *ledger {
	l := &ledger{live: map[int]placed{}, seen: map[int]bool{},
		slotSess: make([]int, slots), ready: make([]chan struct{}, slots)}
	for i := range l.ready {
		l.slotSess[i] = -1
		l.ready[i] = make(chan struct{})
	}
	return l
}

// violate records a contract violation; the run then fails the gate.
func (l *ledger) violate(format string, args ...any) {
	if len(l.broken) < 20 {
		l.broken = append(l.broken, fmt.Sprintf(format, args...))
	} else if len(l.broken) == 20 {
		l.broken = append(l.broken, "...")
	}
}

// answer classifies one response; false means the op failed.
func (l *ledger) answer(op string, err error) bool {
	l.attempted++
	if err == nil {
		return true
	}
	l.failed++
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		l.n.queueFull++
	case errors.Is(err, serve.ErrNoCapacity):
		l.n.rejected++
	case !sentinel(err):
		l.violate("%s: undocumented answer: %v", op, err)
	}
	return false
}

// admitted books an admit's answer. slot < 0 marks a closed-loop admit;
// hasSeq says pl.Seq came back (in-process answers only).
func (l *ledger) admitted(slot, game int, pl fleet.Placement, err error, hasSeq bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.answer("admit", err) {
		l.n.placed++
		if l.seen[pl.Session] {
			l.violate("session %d handed out twice", pl.Session)
		}
		l.seen[pl.Session] = true
		l.live[pl.Session] = placed{server: pl.Server, game: game}
		if hasSeq {
			l.seqs = append(l.seqs, seqRec{pl.Session, pl.Seq})
		}
		if slot >= 0 {
			l.slotSess[slot] = pl.Session
		}
	}
	if slot >= 0 {
		close(l.ready[slot])
	}
}

// slotSession waits for a slot's admit to be answered and returns its
// session (false when the admit failed).
func (l *ledger) slotSession(slot int) (int, bool) {
	<-l.ready[slot]
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.slotSess[slot]
	return s, s >= 0
}

// left books a leave's answer.
func (l *ledger) left(session int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.answer("leave", err) {
		l.n.removed++
		if _, ok := l.live[session]; !ok {
			l.violate("leave of session %d succeeded but it was not live", session)
		}
		delete(l.live, session)
	}
}

func (l *ledger) counts() opCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// liveSessions lists the live sessions in id order.
func (l *ledger) liveSessions() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, 0, len(l.live))
	for s := range l.live {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// fleetView is the fleet's own account after the drain.
type fleetView struct {
	stats   fleet.Stats
	servers [][]int // sorted game multiset per server (Cluster.Snapshot)
}

// check compares the fleet's account with the ledger's and lists every
// disagreement; an empty result passes the gate.
func (l *ledger) check(v fleetView) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]string(nil), l.broken...)
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	st := v.stats
	if st.Placed-st.Removed != st.Active {
		bad("placed %d - removed %d != active %d", st.Placed, st.Removed, st.Active)
	}
	if st.Active != len(l.live) {
		bad("fleet holds %d sessions, the generator counts %d live", st.Active, len(l.live))
	}
	want := make([][]int, len(v.servers))
	for sid, p := range l.live {
		if p.server < 0 || p.server >= len(want) {
			bad("session %d on unknown server %d", sid, p.server)
			continue
		}
		want[p.server] = append(want[p.server], p.game)
	}
	hosted := 0
	for i, games := range v.servers {
		hosted += len(games)
		if len(games) > maxPerServer {
			bad("server %d holds %d sessions, cap %d", i, len(games), maxPerServer)
		}
		slices.Sort(want[i])
		if !slices.Equal(games, want[i]) {
			bad("server %d hosts games %v, the generator placed %v", i, games, want[i])
		}
	}
	if hosted != st.Active {
		bad("snapshot hosts %d sessions, fleet counts %d active", hosted, st.Active)
	}
	seqs := append([]seqRec(nil), l.seqs...)
	sort.Slice(seqs, func(i, j int) bool { return seqs[i].session < seqs[j].session })
	for i := 1; i < len(seqs); i++ {
		if seqs[i].seq <= seqs[i-1].seq {
			bad("Placement.Seq not strictly increasing: session %d seq %d after session %d seq %d",
				seqs[i].session, seqs[i].seq, seqs[i-1].session, seqs[i-1].seq)
			break
		}
	}
	if len(out) > 40 {
		out = append(out[:40], "...")
	}
	return out
}

// checkRMError gates the trained model on the Figure 7b error.
func checkRMError(e float64) []string {
	if math.Abs(e-fig7bRMError) > 0.0005 {
		return []string{fmt.Sprintf("model RM error %.4f differs from Figure 7b's %.3f", e, fig7bRMError)}
	}
	return nil
}
