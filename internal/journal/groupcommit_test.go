package journal

import (
	"sync/atomic"
	"testing"
)

// flushGate is a syncer flush hook that counts flushes and, when armed,
// holds the next flush between the buffer swap and its write+fsync until
// released.
type flushGate struct {
	armed   atomic.Bool
	flushes atomic.Int64
	held    chan struct{}
	release chan struct{}
}

func newFlushGate() *flushGate {
	return &flushGate{held: make(chan struct{}), release: make(chan struct{})}
}

func (g *flushGate) hook() {
	g.flushes.Add(1)
	if g.armed.CompareAndSwap(true, false) {
		g.held <- struct{}{}
		<-g.release
	}
}

func openGated(t *testing.T) (*Journal, *flushGate) {
	t.Helper()
	g := newFlushGate()
	j, _, err := open(Options{Dir: t.TempDir(), Fsync: FsyncBatch}, g.hook)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, g
}

func mustAppendOne(t *testing.T, j *Journal, i int) uint64 {
	t.Helper()
	lsn, err := j.Append(&Record{Kind: KindWorkerSeen, Time: float64(i), Machine: i})
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestGroupCommitCoalesces holds the syncer mid-flush and checks that
// every record appended meanwhile becomes durable in exactly one following
// fsync — group commit by construction, with no timing involved.
func TestGroupCommitCoalesces(t *testing.T) {
	j, g := openGated(t)
	g.armed.Store(true)
	first := mustAppendOne(t, j, 0)
	<-g.held // the syncer swapped [first] out and has not written it yet

	if m := j.Metrics(); m.DurableLSN >= first || m.Fsyncs != 0 {
		t.Fatalf("held flush already durable: %+v", m)
	}
	const n = 16
	var last uint64
	for i := 1; i <= n; i++ {
		last = mustAppendOne(t, j, i)
	}
	if m := j.Metrics(); m.PendingRecords != n || m.DurableLSN >= first {
		t.Fatalf("while held: %+v", m)
	}

	close(g.release)
	if err := j.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	m := j.Metrics()
	if m.Fsyncs != 2 || m.DurableLSN != last || m.PendingRecords != 0 {
		t.Fatalf("after release: fsyncs=%d durable=%d pending=%d, want 2 fsyncs up to %d",
			m.Fsyncs, m.DurableLSN, m.PendingRecords, last)
	}
	if want := float64(n+1) / 2; m.RecordsPerFsync != want {
		t.Fatalf("records/fsync = %v, want %v", m.RecordsPerFsync, want)
	}
	if f := g.flushes.Load(); f != 2 {
		t.Fatalf("%d flushes, want 2", f)
	}
}

// TestLoneAppendOneFsync checks that a record appended and waited on
// alone costs exactly one flush and one fsync: the syncer does not wait
// for company before writing.
func TestLoneAppendOneFsync(t *testing.T) {
	j, g := openGated(t)
	for i := 0; i < 3; i++ {
		before := j.Metrics().Fsyncs
		lsn := mustAppendOne(t, j, i)
		if err := j.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		m := j.Metrics()
		if m.Fsyncs != before+1 || m.DurableLSN != lsn {
			t.Fatalf("append %d: fsyncs %d -> %d, durable %d, want one fsync up to %d",
				i, before, m.Fsyncs, m.DurableLSN, lsn)
		}
		if f := g.flushes.Load(); f != int64(i+1) {
			t.Fatalf("append %d: %d flushes", i, f)
		}
	}
}
