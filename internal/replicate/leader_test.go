package replicate

import (
	"net"
	"testing"
	"time"

	"botgrid/internal/journal"
)

// TestReplicaHotPathAllocs pins the leader's per-record cost: Append keeps
// one exact-size frame per record, and recomputeCommit, which runs on
// every local or follower ack, allocates nothing.
func TestReplicaHotPathAllocs(t *testing.T) {
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	cfg := Config{NodeID: "a", Dir: t.TempDir(), Peers: []Peer{
		{ID: "a", Addr: "127.0.0.1:1"}, {ID: "b", Addr: "127.0.0.1:2"}, {ID: "c", Addr: "127.0.0.1:3"},
	}}
	r := newReplica(cfg, 1, jnl, 0) // streams not started: Append only queues

	rec := journal.Record{Kind: journal.KindTaskCompleted, Time: 12.5, Bag: 3, Task: 7, Seq: 99}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := r.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Append: %v allocs/record, want 1 (the retained frame)", n)
	}

	r.mu.Lock()
	r.localDur = r.lastLSN
	r.followers["b"].match = r.lastLSN - 5
	r.followers["c"].match = r.lastLSN - 9
	n := testing.AllocsPerRun(100, r.recomputeCommit)
	commit, want := r.commit, r.lastLSN-5
	r.mu.Unlock()
	if n != 0 {
		t.Errorf("recomputeCommit: %v allocs, want 0", n)
	}
	if commit != want {
		t.Errorf("commit = %d, want %d (second-highest of three)", commit, want)
	}
}

func TestUntilBoundary(t *testing.T) {
	w := batchWindow
	base := time.Unix(1_700_000_000, 0)
	for _, off := range []time.Duration{0, 1, w / 2, w - 1, w, 3*w + 7} {
		now := base.Add(off)
		d := untilBoundary(now, w)
		if d <= 0 || d > w {
			t.Errorf("offset %v: wait %v outside (0, %v]", off, d, w)
		}
		if at := now.Add(d).UnixNano(); at%int64(w) != 0 {
			t.Errorf("offset %v: wait %v ends off the grid (%d)", off, d, at%int64(w))
		}
	}
}

// TestLeaderShipsOnWindowBoundary drives a leader stream into a scripted
// follower: records appended within one batch window reach the follower
// together, and none before the window's boundary.
func TestLeaderShipsOnWindowBoundary(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NodeID: "a", Dir: t.TempDir(), Lease: time.Minute, Peers: []Peer{
		{ID: "a", Addr: "127.0.0.1:1"}, {ID: "b", Addr: ln.Addr().String()},
	}}
	r := newReplica(cfg, 1, jnl, 0)
	// A window far above scheduling noise keeps the timing checks robust.
	const window = 100 * time.Millisecond
	r.window = window
	r.start()
	defer r.Close()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if typ, _, _, err := readFrame(conn, nil); err != nil || typ != msgHello {
		t.Fatalf("hello: type %d, %v", typ, err)
	}
	if err := sendJSON(conn, msgState, stateMsg{Term: 1}); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := readFrame(conn, nil); err != nil || typ != msgSnapshot {
		t.Fatalf("snapshot: type %d, %v", typ, err)
	}

	// Append just after a boundary, so the whole burst falls in one window.
	time.Sleep(untilBoundary(time.Now(), window) + time.Millisecond)
	start := time.Now()
	const n = 5
	for i := 0; i < n; i++ {
		rec := journal.Record{Kind: journal.KindTaskCompleted, Time: 1, Bag: 1, Task: i, Seq: uint64(i)}
		if _, err := r.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	boundary := start.Add(untilBoundary(start, window))
	var first, last time.Time
	for got := 0; got < n; {
		typ, payload, _, err := readFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ != msgEntry {
			continue
		}
		_, lsn, _, err := decodeEntry(payload)
		if err != nil {
			t.Fatal(err)
		}
		got++
		if lsn != uint64(got) {
			t.Fatalf("entry %d carries LSN %d", got, lsn)
		}
		last = time.Now()
		if got == 1 {
			first = last
		}
	}
	if first.Before(boundary) {
		t.Errorf("first entry arrived %v before the window boundary", boundary.Sub(first))
	}
	if spread := last.Sub(first); spread > window/2 {
		t.Errorf("burst arrived over %v, want one write", spread)
	}
}
