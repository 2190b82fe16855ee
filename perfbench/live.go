package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"botgrid/internal/rng"
	"botgrid/internal/serve"
)

// Shared machinery of the two live workloads: the feeder's books, the
// ledger of acknowledged done-reports, the once-a-second stats scrape and
// the correctness gates run after the load has quiesced.

// Load phases. Drivers sample latencies and count work only while the
// phase is phaseMeasure.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// rssSlice is the length of the window slices whose resident-set peaks
// max_rss_mb takes the median of.
const rssSlice = 5 * time.Second

// taskGranularity is every submitted bag's granularity (reference
// seconds); with timescale 0 tasks complete as soon as they are reported.
const taskGranularity = 1000

// books is the feeder's view of each shard's backlog: tasks submitted to
// the shard minus done-reports acked for it, re-anchored once a second by
// the stats scrape. Bags stripe over the shards round-robin and a bag's
// global ID is local·shards + shard, so the books learn a bag's shard from
// its ID.
type books struct {
	shards []shardBooks
}

type shardBooks struct {
	submitted, acked, correction atomic.Int64
}

func newBooks(shards int) *books { return &books{shards: make([]shardBooks, shards)} }

func (b *books) of(bag int) *shardBooks { return &b.shards[bag%len(b.shards)] }

// submitted books an accepted bag.
func (b *books) submitted(bag, tasks int) { b.of(bag).submitted.Add(int64(tasks)) }

// acked books a done-report acked ok.
func (b *books) acked(bag int) { b.of(bag).acked.Add(1) }

func (sb *shardBooks) outstanding() int64 {
	return sb.submitted.Load() - sb.acked.Load() + sb.correction.Load()
}

// low is the smallest shard backlog: the feeder tops up while any shard
// is short, since a shard's workers only see that shard's tasks.
func (b *books) low() int64 {
	m := b.shards[0].outstanding()
	for i := 1; i < len(b.shards); i++ {
		m = min(m, b.shards[i].outstanding())
	}
	return m
}

// correct re-anchors each shard's books on the server's own count of its
// unfinished tasks (pending + running) seen by a scrape.
func (b *books) correct(st serve.StatsResponse) {
	if len(st.ShardStats) != len(b.shards) {
		if len(b.shards) == 1 {
			b.shards[0].reanchor(st.PendingTasks + st.RunningReplicas)
		}
		return
	}
	for i, sh := range st.ShardStats {
		b.shards[i].reanchor(sh.PendingTasks + sh.RunningReplicas)
	}
}

func (sb *shardBooks) reanchor(server int) {
	sb.correction.Store(0)
	sb.correction.Store(int64(server) - sb.outstanding())
}

// bagWorks draws one bag's task works from the run's seeded stream.
func bagWorks(str *rng.Stream, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = str.Uniform(0.5*taskGranularity, 1.5*taskGranularity)
	}
	return w
}

// ledger records every (bag, task) whose done-report the driver saw
// acked ok, as one bitset per bag. Each driver goroutine owns one; merge
// combines them.
type ledger struct {
	tasks map[int][]uint64
	count map[int]int
	dups  int
	n     int
}

func newLedger() *ledger { return &ledger{tasks: map[int][]uint64{}, count: map[int]int{}} }

func (l *ledger) ack(bag, task int) {
	bits := l.tasks[bag]
	if w := task/64 + 1; len(bits) < w {
		bits = append(bits, make([]uint64, w-len(bits))...)
		l.tasks[bag] = bits
	}
	if bits[task/64]&(1<<(task%64)) != 0 {
		l.dups++
		return
	}
	bits[task/64] |= 1 << (task % 64)
	l.count[bag]++
	l.n++
}

func (l *ledger) merge(o *ledger) {
	for bag, bits := range o.tasks {
		for w, word := range bits {
			for b := 0; b < 64; b++ {
				if word&(1<<b) != 0 {
					l.ack(bag, w*64+b)
				}
			}
		}
	}
	l.dups += o.dups
}

// check holds the server's state to the ledger: every task acked ok is a
// completed task of its bag, no task was acked twice, and — the driver
// being the only reporter — the server completed exactly what was acked.
func (l *ledger) check(bags []serve.BagStatus, tasksCompleted int) error {
	if l.dups > 0 {
		return fmt.Errorf("ledger: %d tasks acked ok twice", l.dups)
	}
	done := make(map[int]int, len(bags))
	for _, b := range bags {
		done[b.Bag] = b.Done
	}
	ids := make([]int, 0, len(l.tasks))
	for bag := range l.tasks {
		ids = append(ids, bag)
	}
	sort.Ints(ids)
	for _, bag := range ids {
		got, ok := done[bag]
		if !ok {
			return fmt.Errorf("ledger: bag %d has acked reports but the server does not know it", bag)
		}
		if want := l.count[bag]; got != want {
			return fmt.Errorf("ledger: bag %d has %d tasks acked ok, server counts %d done", bag, want, got)
		}
	}
	for _, b := range bags {
		if b.Done > 0 && l.count[b.Bag] == 0 {
			return fmt.Errorf("ledger: bag %d has %d done tasks the driver never saw acked", b.Bag, b.Done)
		}
	}
	if tasksCompleted != l.n {
		return fmt.Errorf("ledger: %d reports acked ok, server completed %d tasks", l.n, tasksCompleted)
	}
	return nil
}

// checkConservation is the replica-accounting invariant on a quiesced
// server: every replica started either completed its task, was killed
// by a sibling's completion, failed, or is still running.
func checkConservation(st serve.StatsResponse) error {
	if got := st.TasksCompleted + st.ReplicasKilled + st.ReplicaFailures + st.RunningReplicas; got != st.ReplicasStarted {
		return fmt.Errorf("replica accounting: started %d != completed %d + killed %d + failed %d + running %d",
			st.ReplicasStarted, st.TasksCompleted, st.ReplicasKilled, st.ReplicaFailures, st.RunningReplicas)
	}
	return nil
}

// scrape is one /v1/stats sample.
type scrape struct {
	at    time.Time
	took  time.Duration
	phase int32
	st    serve.StatsResponse
}

// scraper polls stats once a second, as a monitoring agent would, and
// re-anchors the feeder's books. It is never on the load path.
type scraper struct {
	get   func() (serve.StatsResponse, error)
	books *books
	phase *atomic.Int32

	mu      sync.Mutex
	samples []scrape
	errs    int
	stop    chan struct{}
	done    chan struct{}
}

func startScraper(get func() (serve.StatsResponse, error), b *books, phase *atomic.Int32) *scraper {
	s := &scraper{get: get, books: b, phase: phase, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *scraper) loop() {
	defer close(s.done)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.once()
	}
}

// once takes one sample now.
func (s *scraper) once() (scrape, error) {
	ph := s.phase.Load()
	t0 := time.Now()
	st, err := s.get()
	took := time.Since(t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.errs++
		return scrape{}, err
	}
	sc := scrape{at: t0, took: took, phase: ph, st: st}
	s.samples = append(s.samples, sc)
	s.books.correct(st)
	return sc, nil
}

func (s *scraper) close() {
	close(s.stop)
	<-s.done
}

// window returns the scrapes taken inside the measured window.
func (s *scraper) window() []scrape {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []scrape
	for _, sc := range s.samples {
		if sc.phase == phaseMeasure {
			out = append(out, sc)
		}
	}
	return out
}

// checkValidity is the workload validity check: no shard's backlog may
// empty inside the window, or the run measured the feeder.
func (s *scraper) checkValidity() error {
	w := s.window()
	s.mu.Lock()
	errs := s.errs
	s.mu.Unlock()
	if errs > 0 {
		return fmt.Errorf("validity: %d stats scrapes failed", errs)
	}
	if len(w) == 0 {
		return fmt.Errorf("validity: no stats scrape inside the window")
	}
	for i, p := range s.minShardPending() {
		if p <= 0 {
			return fmt.Errorf("validity: a shard had no pending task at scrape %d of the window: the run measured the feeder", i)
		}
	}
	return nil
}

// statsMetrics reports the scrape latency (it holds shard locks, so it can
// move dispatch tails).
func (s *scraper) statsMetrics(out *report) {
	var ms []float64
	for _, sc := range s.window() {
		ms = append(ms, sc.took.Seconds()*1e3)
	}
	out.set("serve.stats_ms.p50", median(ms))
	out.set("serve.stats_ms.max", maxOf(ms))
}

// loopbackListener listens on an ephemeral loopback port.
func loopbackListener() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// freshDir makes an empty data directory under the build-output dir.
func freshDir(o options, name string) (string, error) {
	dir := filepath.Join(o.out, "data", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// latencies holds a driver's window samples, in seconds.
type latencies struct {
	fetch, ack samples
}

func (l *latencies) merge(o *latencies) {
	l.fetch = append(l.fetch, o.fetch...)
	l.ack = append(l.ack, o.ack...)
}

// resultMetrics sets the live workloads' end-to-end metrics from the
// window: assignments per second, and the median time from issuing a
// done-report to its durable ack. The tails and the fetch latency go to
// the result file's details.
func resultMetrics(out *report, lat *latencies, dispatched int64, elapsed time.Duration) error {
	if len(lat.ack) == 0 {
		return fmt.Errorf("no done-report acked in the window")
	}
	out.set("throughput_per_s", float64(dispatched)/elapsed.Seconds())
	out.set("result_p50_ms", pct(lat.ack, 0.5)*1e3)
	out.details["ack_p90_ms"] = pct(lat.ack, 0.90) * 1e3
	out.details["ack_p99_ms"] = pct(lat.ack, 0.99) * 1e3
	out.details["ack_samples"] = len(lat.ack)
	out.details["fetch_p50_ms"] = pct(lat.fetch, 0.5) * 1e3
	out.details["fetch_p99_ms"] = pct(lat.fetch, 0.99) * 1e3
	return nil
}

// windowSeries records, for each scrape inside the window, the pending
// backlog in total and on the emptiest shard, the shards' ring weights,
// and the dispatch rate since the previous scrape.
func windowSeries(out *report, sc *scraper) {
	out.details["min_shard_pending"] = sc.minShardPending()
	var pending []int
	var weights [][]int
	var rate []float64
	w := sc.window()
	for i, s := range w {
		pending = append(pending, s.st.PendingTasks)
		var ws []int
		for _, sh := range s.st.ShardStats {
			ws = append(ws, sh.Weight)
		}
		weights = append(weights, ws)
		if i > 0 {
			started := s.st.ReplicasStarted - w[i-1].st.ReplicasStarted
			rate = append(rate, float64(started)/s.at.Sub(w[i-1].at).Seconds())
		}
	}
	out.details["pending"] = pending
	out.details["shard_weights"] = weights
	out.details["dispatch_per_s_series"] = rate
}

// minShardPending lists, for each scrape inside the window, the pending
// backlog of the emptiest shard (the only one on a single-shard server).
func (s *scraper) minShardPending() []int {
	var low []int
	for _, w := range s.window() {
		m := w.st.PendingTasks
		for _, sh := range w.st.ShardStats {
			m = min(m, sh.PendingTasks)
		}
		low = append(low, m)
	}
	return low
}
