package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
	"botgrid/internal/rng"
	"botgrid/internal/serve"
	"botgrid/internal/shard"
	"botgrid/internal/wire"
)

// The dispatch-wire workload: an in-process serve.Server (2 shards,
// LongIdle, journal on with batch fsync) serving the binary protocol over
// loopback TCP. Worker identities are multiplexed over one persistent
// wire.Client per core, in a closed loop of batches: each batch carries
// the previous group's done-reports, any bag submissions the feeder calls
// for, and 64 fetches. The load is balanced at the source: worker names
// are chosen so the initial ring gives each shard an equal share, and one
// feeder, on client 0, keeps every shard's own backlog topped up (a shard
// whose backlog runs dry turns its workers to WQR-FT replicas). Tasks
// complete instantly, so group commit, the shard router and rebalancer
// and the binary codec do the work.

const (
	wireShards = 2
	wireGroup  = 64
	// wireBacklog is the pending backlog the feeder holds on every shard,
	// in multiples of an even share of the workers.
	wireBacklog = 2.5
	// feedPerBatch caps the bags the feeder adds to one of client 0's
	// batches. A cycle (one batch per client) takes about
	// clients·wireGroup/wireShards tasks from each shard, and four bags
	// a cycle outpace that, at full size and at the smoke tests' 50-task
	// bags on two clients.
	feedPerBatch = 4
)

// wireEnv is one running server with its listeners and clients.
type wireEnv struct {
	cfg     serve.Config
	srv     *serve.Server
	ws      *wire.Server
	hs      *http.Server
	base    string
	clients []*wire.Client
	// primeBatches counts the priming batches client 0 sent, so traced
	// batch numbering matches the server's burst numbering.
	primeBatches uint64
	served       sync.WaitGroup
	closed       bool
}

func wireConfig(o options, dir string) serve.Config {
	return serve.Config{
		Policy:     core.LongIdle,
		MaxWorkers: o.size.wireWorkers,
		Lease:      10 * time.Minute,
		RetryMs:    1,
		Seed:       o.seed,
		Shards:     wireShards,
		DataDir:    dir,
		Fsync:      journal.FsyncBatch,
	}
}

// startWire opens the server on dir and connects the clients; h, when
// non-nil, wraps the server's wire handler (the traced run).
func startWire(o options, dir string, wrap func(wire.Handler) wire.Handler) (*wireEnv, error) {
	e := &wireEnv{cfg: wireConfig(o, dir)}
	srv, err := serve.NewServer(e.cfg)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	h := srv.WireHandler()
	if wrap != nil {
		h = wrap(h)
	}
	e.ws = wire.NewServer(h)
	wln, err := loopbackListener()
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	hln, err := loopbackListener()
	if err != nil {
		wln.Close()
		return nil, errors.Join(err, e.close())
	}
	e.hs = &http.Server{Handler: srv}
	e.base = "http://" + hln.Addr().String()
	e.served.Add(2)
	go func() { defer e.served.Done(); e.ws.Serve(wln) }()
	go func() { defer e.served.Done(); e.hs.Serve(hln) }()
	for i := 0; i < o.parallelism; i++ {
		c, err := wire.Dial(wln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// stats scrapes /v1/stats over HTTP.
func (e *wireEnv) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := http.Get(e.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// close stops listeners, clients and the server (final snapshot).
func (e *wireEnv) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	for _, c := range e.clients {
		//botlint:ignore errcheck -- load-generator teardown: every operation the run counts was already acknowledged over this connection
		c.Close()
	}
	var errs []error
	if e.ws != nil {
		errs = append(errs, e.ws.Close())
	}
	if e.hs != nil {
		errs = append(errs, e.hs.Close())
	}
	e.served.Wait()
	return errors.Join(append(errs, e.srv.Close())...)
}

// feeder is the workload's only bag submitter. Bags stripe over the
// shards round-robin in submission order, so with one submitter the shard
// of each next bag is known, and the feeder tops up each shard by its own
// deficit: a full bag to a shard below target; a one-task filler bag, only
// to advance the stripe, to a shard at target while the other is short by
// more than a bag. Neither shard is overfed to keep the other one fed.
type feeder struct {
	books    *books
	str      *rng.Stream
	target   int64
	bagTasks int
	next     int   // shard of the next submission
	fillers  int64 // one-task bags
}

func newFeeder(o options, b *books) *feeder {
	return &feeder{books: b, str: rng.Root(o.seed, "perfbench-works"), target: wireTarget(o), bagTasks: o.size.bagTasks}
}

// plan adds up to max bags to batch and returns the shard each will land
// on.
func (f *feeder) plan(batch *wire.Batch, max int) []int {
	var to []int
	var planned [wireShards]int64
	// short reports whether shard s is more than by below target.
	short := func(s int, by int64) bool { return f.books.shards[s].outstanding()+planned[s]+by < f.target }
	for len(to) < max {
		s, n := f.next, f.bagTasks
		if !short(s, 0) {
			if !short((s+1)%wireShards, int64(f.bagTasks)) {
				break
			}
			n = 1
			f.fillers++
		}
		batch.Submit(taskGranularity, bagWorks(f.str, n))
		planned[s] += int64(n)
		to = append(to, s)
		f.next = (s + 1) % wireShards
	}
	return to
}

// booked books the batch's submit results, which start at res[0], and
// fails if a bag landed on another shard than planned: the feeder's
// prediction assumes it is the only submitter.
func (f *feeder) booked(to []int, res []wire.BatchResult) error {
	for i, s := range to {
		r := res[i]
		if r.Err != "" {
			return fmt.Errorf("submit: %s", r.Err)
		}
		if got := r.Submit.Bag % wireShards; got != s {
			return fmt.Errorf("bag %d landed on shard %d, the feeder planned shard %d", r.Submit.Bag, got, s)
		}
		f.books.submitted(r.Submit.Bag, r.Submit.Tasks)
	}
	return nil
}

// prime submits bags over c until every shard's books hold the target,
// and returns how many batches it sent.
func prime(c *wire.Client, f *feeder) (uint64, error) {
	var n uint64
	for ; f.books.low() < f.target; n++ {
		batch := c.NewBatch()
		to := f.plan(batch, 8)
		res, err := batch.Do()
		if err == nil {
			err = f.booked(to, res)
		}
		if err != nil {
			return n, fmt.Errorf("priming: %w", err)
		}
	}
	return n, nil
}

// wireTarget is the outstanding-task level the feeder tops each shard up
// to: its share of the running replicas (one per worker) plus of the
// pending backlog.
func wireTarget(o options) int64 {
	return int64(float64(o.size.wireWorkers) * (1 + wireBacklog) / wireShards)
}

// wireDriver is one closed-loop load goroutine over its own client.
type wireDriver struct {
	id      int
	c       *wire.Client
	workers []string
	books   *books
	feed    *feeder // client 0's driver only
	phase   *atomic.Int32
	tr      *tracer // nil unless traced

	led                          *ledger
	lat                          latencies
	batches                      uint64
	dispatched, fetches, reports int64
	stale, failed, attempted     int64
	byShard                      [wireShards]int64
	rtt                          map[uint64]time.Duration // traced: batch ID -> RTT
}

// batchID names client d's k-th batch; the traced session derives the
// same ID for the burst that served it.
func batchID(client int, k uint64) uint64 { return uint64(client)<<40 | k }

func workerName(client, i int) string { return fmt.Sprintf("c%d-%06d", client, i) }

// balancedWorkers names client's n worker identities so that the
// server's initial ring places an equal share on each shard.
func balancedWorkers(client, n int) []string {
	r := shard.NewRing(wireShards, nil)
	var quota [wireShards]int
	for s := range quota {
		quota[s] = n / wireShards
		if s < n%wireShards {
			quota[s]++
		}
	}
	names := make([]string, 0, n)
	for i := 0; len(names) < n; i++ {
		w := workerName(client, i)
		if s := r.Lookup(w); quota[s] > 0 {
			quota[s]--
			names = append(names, w)
		}
	}
	return names
}

// clientOf parses the client index back out of a worker name.
func clientOf(worker []byte) (int, bool) {
	s := string(worker)
	if !strings.HasPrefix(s, "c") {
		return 0, false
	}
	dash := strings.IndexByte(s, '-')
	if dash < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:dash])
	return n, err == nil
}

// pendingReport is an assignment awaiting its done-report in the next
// batch.
type pendingReport struct {
	worker    string
	replica   uint64
	bag, task int
}

func (d *wireDriver) loop() error {
	var pending, next []pendingReport
	for {
		for start := 0; start < len(d.workers); start += wireGroup {
			ph := d.phase.Load()
			if ph == phaseStop {
				return d.flushReports(pending)
			}
			measure := ph == phaseMeasure
			group := d.workers[start:min(start+wireGroup, len(d.workers))]
			b := d.c.NewBatch()
			for _, p := range pending {
				b.Report(p.worker, p.replica, false)
			}
			var to []int
			if d.feed != nil {
				to = d.feed.plan(b, feedPerBatch)
			}
			nsub := len(to)
			for _, w := range group {
				b.Fetch(w, 0)
			}
			t0 := time.Now()
			res, err := b.Do()
			rtt := time.Since(t0)
			k := d.batches
			d.batches++
			d.attempted += int64(len(pending) + nsub + len(group))
			if err != nil {
				d.failed += int64(len(pending) + nsub + len(group))
				return fmt.Errorf("client %d batch: %w", d.id, err)
			}
			if measure {
				d.lat.fetch.add(rtt)
				if len(pending) > 0 {
					d.lat.ack.add(rtt)
				}
				if d.tr != nil {
					id := batchID(d.id, k)
					d.tr.add("wire.batch", id, -1, t0, t0.Add(rtt))
					d.rtt[id] = rtt
				}
			}
			i := 0
			for _, p := range pending {
				switch res[i].Ack {
				case wire.AckOK:
					d.led.ack(p.bag, p.task)
					d.books.acked(p.bag)
				case wire.AckStale:
					if measure {
						d.stale++
					}
				default:
					d.failed++
				}
				if measure {
					d.reports++
				}
				i++
			}
			if d.feed != nil {
				if err := d.feed.booked(to, res[i:]); err != nil {
					d.failed++
					return fmt.Errorf("client %d batch: %w", d.id, err)
				}
			}
			i += nsub
			next = next[:0]
			for _, w := range group {
				f := res[i]
				i++
				if f.Err != "" {
					d.failed++
					continue
				}
				if measure {
					d.fetches++
				}
				if !f.Fetch.Assigned {
					continue
				}
				if measure {
					d.dispatched++
					d.byShard[f.Fetch.Bag%wireShards]++
				}
				next = append(next, pendingReport{w, f.Fetch.Replica, f.Fetch.Bag, f.Fetch.Task})
			}
			pending, next = next, pending
		}
	}
}

// flushReports delivers the last group's done-reports so the ledger is
// complete when the load stops.
func (d *wireDriver) flushReports(pending []pendingReport) error {
	if len(pending) == 0 {
		return nil
	}
	b := d.c.NewBatch()
	for _, p := range pending {
		b.Report(p.worker, p.replica, false)
	}
	res, err := b.Do()
	if err != nil {
		return fmt.Errorf("client %d final reports: %w", d.id, err)
	}
	for i, p := range pending {
		if res[i].Ack == wire.AckOK {
			d.led.ack(p.bag, p.task)
			d.books.acked(p.bag)
		}
	}
	return nil
}

// wireLoad is one measured load phase against an environment.
type wireLoad struct {
	drivers []*wireDriver
	phase   *atomic.Int32
	sc      *scraper
	// start is the scrape taken just before the window opened.
	start   scrape
	rss     rssSlices
	elapsed time.Duration
}

// setupWire starts a server and primes its backlog through f, returning
// the env and the time it took.
func setupWire(o options, dir string, wrap func(wire.Handler) wire.Handler, f *feeder) (*wireEnv, time.Duration, error) {
	t0 := time.Now()
	e, err := startWire(o, dir, wrap)
	if err != nil {
		return nil, 0, err
	}
	if e.primeBatches, err = prime(e.clients[0], f); err != nil {
		return nil, 0, errors.Join(err, e.close())
	}
	return e, time.Since(t0), nil
}

// driveWire runs warm-up then the measured window on e and stops the
// load; client 0's driver feeds bags through f. tr, when non-nil, records
// client batch spans.
func driveWire(o options, e *wireEnv, f *feeder, phase *atomic.Int32, window time.Duration, tr *tracer) (*wireLoad, error) {
	l := &wireLoad{phase: phase}
	for c := range e.clients {
		n := o.size.wireWorkers / len(e.clients)
		if c < o.size.wireWorkers%len(e.clients) {
			n++
		}
		d := &wireDriver{
			id: c, c: e.clients[c], workers: balancedWorkers(c, n), books: f.books, phase: phase,
			tr: tr, led: newLedger(), rtt: map[uint64]time.Duration{},
		}
		if c == 0 {
			d.feed = f
			d.batches = e.primeBatches
		}
		l.drivers = append(l.drivers, d)
	}
	l.sc = startScraper(e.stats, f.books, phase)
	errs := make([]error, len(l.drivers))
	var wg sync.WaitGroup
	for i, d := range l.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.loop()
		}()
	}
	time.Sleep(o.size.warm)
	start, scrapeErr := l.sc.once()
	if scrapeErr != nil {
		scrapeErr = fmt.Errorf("stats scrape before the window: %w", scrapeErr)
	}
	l.start = start
	l.phase.Store(phaseMeasure)
	t0 := time.Now()
	l.rss.begin()
	for end := t0.Add(window); time.Until(end) > 0; l.rss.end() {
		time.Sleep(min(rssSlice, time.Until(end)))
	}
	l.phase.Store(phaseStop)
	l.elapsed = time.Since(t0)
	l.sc.close()
	wg.Wait()
	return l, errors.Join(append(errs, scrapeErr)...)
}

func (l *wireLoad) merged() (*ledger, *latencies, *wireDriver) {
	led, lat, tot := newLedger(), &latencies{}, &wireDriver{}
	for _, d := range l.drivers {
		led.merge(d.led)
		lat.merge(&d.lat)
		tot.dispatched += d.dispatched
		tot.fetches += d.fetches
		tot.reports += d.reports
		tot.stale += d.stale
		tot.failed += d.failed
		tot.attempted += d.attempted
		for s := range d.byShard {
			tot.byShard[s] += d.byShard[s]
		}
	}
	return led, lat, tot
}

// gateWire runs the correctness gates on a quiesced environment: replica
// accounting and the ledger against live stats, then — after Close — a
// restart from the data dir must recover every acked report. It returns
// the restart's recovery time and summary.
func gateWire(e *wireEnv, led *ledger) (time.Duration, *serve.RecoveryInfo, error) {
	st, err := e.stats()
	if err != nil {
		return 0, nil, err
	}
	if err := checkConservation(st); err != nil {
		return 0, nil, err
	}
	if err := led.check(st.Bags, st.TasksCompleted); err != nil {
		return 0, nil, err
	}
	if err := e.close(); err != nil {
		return 0, nil, fmt.Errorf("closing server: %w", err)
	}
	return recoverCheck(e.cfg, led)
}

// recoverCheck restarts a server on cfg's data dir and holds its
// recovered state to the ledger.
func recoverCheck(cfg serve.Config, led *ledger) (time.Duration, *serve.RecoveryInfo, error) {
	t0 := time.Now()
	srv, err := serve.NewServer(cfg)
	took := time.Since(t0)
	if err != nil {
		return 0, nil, fmt.Errorf("recovering %s: %w", cfg.DataDir, err)
	}
	rec := srv.Recovery()
	st, err := localStats(srv)
	if err == nil {
		err = led.check(st.Bags, st.TasksCompleted)
	}
	if err != nil {
		err = fmt.Errorf("after restart: %w", err)
	}
	return took, rec, errors.Join(err, srv.Close())
}

// localStats reads /v1/stats through the handler without a listener.
func localStats(h http.Handler) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

func runWire(o options, out *report) error {
	if o.trace {
		return traceWire(o, out)
	}
	dir, err := freshDir(o, "wire")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set up several times; setup_s is the median, the last env is kept.
	var setups []float64
	var e *wireEnv
	var f *feeder
	for i := 0; i < o.size.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		f = newFeeder(o, newBooks(wireShards))
		var took time.Duration
		e, took, err = setupWire(o, sub, nil, f)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer e.close()
	out.set("setup_s", median(setups))

	l, err := driveWire(o, e, f, &atomic.Int32{}, o.window(), nil)
	led, lat, tot := l.merged()
	out.attempted, out.failed = tot.attempted, tot.failed
	if err != nil {
		return err
	}
	if err := l.sc.checkValidity(); err != nil {
		return err
	}
	if _, _, err := gateWire(e, led); err != nil {
		return err
	}
	out.details["setups_s"] = setups
	out.details["filler_bags"] = f.fillers
	out.details["rss_slice_peaks_mb"] = l.rss.peaks
	out.set("max_rss_mb", l.rss.median())
	windowSeries(out, l.sc)
	return resultMetrics(out, lat, tot.dispatched, l.elapsed)
}

// tracedWire wraps the server's wire.Handler and times every Session
// call. A burst is the calls up to one Flush; it carries the ID of the
// client batch it served.
type tracedWire struct {
	inner wire.Handler
	tr    *tracer
	phase *atomic.Int32

	mu          sync.Mutex
	sessionTime map[uint64]time.Duration // burst ID -> Σ call time
	flushes     int64
	pendings    int64
}

func (h *tracedWire) NewSession() wire.Session {
	return &tracedSession{h: h, inner: h.inner.NewSession(), client: -1}
}

type tracedSession struct {
	h      *tracedWire
	inner  wire.Session
	client int
	bursts uint64
	start  time.Time
	calls  []span // the current burst's call spans, Parent 0 = the burst
	busy   time.Duration
}

func (s *tracedSession) learn(worker []byte) {
	if s.client < 0 {
		if c, ok := clientOf(worker); ok {
			s.client = c
		}
	}
}

func (s *tracedSession) call(name string, t0, t1 time.Time) {
	if len(s.calls) == 0 {
		s.start = t0
	}
	s.calls = append(s.calls, span{Name: name, Parent: 0, Start: s.h.tr.ns(t0), End: s.h.tr.ns(t1)})
	s.busy += t1.Sub(t0)
}

func (s *tracedSession) Submit(g float64, works []float64) (wire.SubmitResult, wire.Pending, error) {
	t0 := time.Now()
	r, p, err := s.inner.Submit(g, works)
	s.call("serve.submit", t0, time.Now())
	return r, p, err
}

func (s *tracedSession) Fetch(worker []byte, power float64) (wire.FetchResult, error) {
	s.learn(worker)
	t0 := time.Now()
	r, err := s.inner.Fetch(worker, power)
	s.call("serve.fetch", t0, time.Now())
	return r, err
}

func (s *tracedSession) Report(worker []byte, replica uint64, failed bool) (wire.Ack, wire.Pending) {
	s.learn(worker)
	t0 := time.Now()
	a, p := s.inner.Report(worker, replica, failed)
	s.call("serve.report", t0, time.Now())
	return a, p
}

func (s *tracedSession) Heartbeat(worker []byte, replica uint64) wire.Ack {
	s.learn(worker)
	t0 := time.Now()
	a := s.inner.Heartbeat(worker, replica)
	s.call("serve.heartbeat", t0, time.Now())
	return a
}

func (s *tracedSession) Flush(pending []wire.Pending) error {
	t0 := time.Now()
	err := s.inner.Flush(pending)
	t1 := time.Now()
	s.call("serve.flush", t0, t1)
	k := s.bursts
	s.bursts++
	if s.h.phase.Load() == phaseMeasure && s.client >= 0 {
		id := batchID(s.client, k)
		group := make([]span, 0, len(s.calls)+1)
		group = append(group, span{Name: "wire.session", ID: id, Parent: -1, Start: s.h.tr.ns(s.start), End: s.h.tr.ns(t1)})
		for _, c := range s.calls {
			c.ID = id
			group = append(group, c)
		}
		s.h.tr.addAll(group)
		s.h.mu.Lock()
		s.h.sessionTime[id] = s.busy
		s.h.flushes++
		s.h.pendings += int64(len(pending))
		s.h.mu.Unlock()
	}
	s.calls, s.busy = s.calls[:0], 0
	return err
}

func (s *tracedSession) Close() { s.inner.Close() }

// traceWire is the traced run: an untraced half window for the reference
// rate, then a fresh server behind the traced handler for the other half.
func traceWire(o options, out *report) error {
	dir, err := freshDir(o, "wire-trace")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	half := o.window() / 2

	f := newFeeder(o, newBooks(wireShards))
	e, _, err := setupWire(o, filepath.Join(dir, "plain"), nil, f)
	if err != nil {
		return err
	}
	l, err := driveWire(o, e, f, &atomic.Int32{}, half, nil)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, _, plain := l.merged()
	plainRate := float64(plain.dispatched) / l.elapsed.Seconds()

	tr := newTracer()
	phase := &atomic.Int32{}
	tw := &tracedWire{tr: tr, phase: phase, sessionTime: map[uint64]time.Duration{}}
	f = newFeeder(o, newBooks(wireShards))
	tracedDir := filepath.Join(dir, "traced")
	e, _, err = setupWire(o, tracedDir, func(h wire.Handler) wire.Handler { tw.inner = h; return tw }, f)
	if err != nil {
		return err
	}
	defer e.close()
	l, err = driveWire(o, e, f, phase, half, tr)
	led, lat, tot := l.merged()
	out.attempted, out.failed = tot.attempted, tot.failed
	if err != nil {
		return err
	}
	if err := l.sc.checkValidity(); err != nil {
		return err
	}
	rate := float64(tot.dispatched) / l.elapsed.Seconds()

	// Crash image: copy the quiesced data dir before the clean close, so
	// a restart from it replays the log rather than a final snapshot.
	crash := filepath.Join(dir, "crash")
	if err := copyTree(tracedDir, crash); err != nil {
		return err
	}
	recoverTook, _, err := gateWire(e, led)
	if err != nil {
		return err
	}
	crashCfg := wireConfig(o, crash)
	_, rec, err := recoverCheck(crashCfg, led)
	if err != nil {
		return fmt.Errorf("crash-image restart: %w", err)
	}

	out.set("trace_overhead_frac", 1-rate/plainRate)
	var rtt []float64
	for _, d := range l.drivers {
		for _, r := range d.rtt {
			rtt = append(rtt, r.Seconds())
		}
	}
	out.set("wire.batch_rtt_ms.p50", pct(rtt, 0.5)*1e3)
	out.set("wire.batch_rtt_ms.p99", pct(rtt, 0.99)*1e3)
	var transport []float64
	tw.mu.Lock()
	for _, d := range l.drivers {
		for id, r := range d.rtt {
			if st, ok := tw.sessionTime[id]; ok {
				transport = append(transport, (r - st).Seconds())
			}
		}
	}
	flushes, pendings := tw.flushes, tw.pendings
	tw.mu.Unlock()
	if len(transport) == 0 {
		return errors.New("trace: no client batch matched a server burst")
	}
	out.set("wire.transport_ms.p50", pct(transport, 0.5)*1e3)
	us := func(name string, p float64) float64 { return pct(tr.byName(name), p) * 1e6 }
	out.set("serve.fetch_us.p50", us("serve.fetch", 0.5))
	out.set("serve.fetch_us.p99", us("serve.fetch", 0.99))
	out.set("serve.report_us.p50", us("serve.report", 0.5))
	out.set("serve.report_us.p99", us("serve.report", 0.99))
	out.set("serve.flush_ms.p50", us("serve.flush", 0.5)/1e3)
	out.set("serve.flush_ms.p99", us("serve.flush", 0.99)/1e3)
	out.set("serve.pending_per_flush", ratio(float64(pendings), float64(flushes)))

	w := l.sc.window()
	first, last := l.start, w[len(w)-1]
	var appends, fsyncs float64
	for i := range last.st.ShardStats {
		j1, j0 := last.st.ShardStats[i].Journal, first.st.ShardStats[i].Journal
		appends += float64(j1.Appends - j0.Appends)
		fsyncs += float64(j1.Fsyncs - j0.Fsyncs)
	}
	between := last.at.Sub(first.at).Seconds()
	started := float64(last.st.ReplicasStarted - first.st.ReplicasStarted)
	out.set("journal.records_per_fsync", ratio(appends, fsyncs))
	out.set("journal.fsyncs_per_s", ratio(fsyncs, between))
	out.set("journal.appends_per_dispatch", ratio(appends, started))
	out.set("journal.replay_records_per_s", ratio(float64(rec.RecordsReplayed), rec.DurationSec))
	out.set("serve.recover_s", recoverTook.Seconds())
	maxShard := int64(0)
	for _, n := range tot.byShard {
		maxShard = max(maxShard, n)
	}
	out.set("shard.max_share", ratio(float64(maxShard), float64(tot.dispatched)))
	out.set("shard.rebalances", float64(last.st.Rebalances))
	out.set("shard.worker_moves", float64(last.st.WorkerMoves))
	out.set("core.assigned_frac", ratio(float64(tot.dispatched), float64(tot.fetches)))
	out.set("core.stale_frac", ratio(float64(tot.stale), float64(tot.reports)))
	l.sc.statsMetrics(out)
	out.details["rate_untraced_per_s"] = plainRate
	out.details["rate_traced_per_s"] = rate
	out.details["result_p50_ms_traced"] = pct(lat.ack, 0.5) * 1e3
	out.details["crash_records_replayed"] = rec.RecordsReplayed
	out.tr = tr
	return nil
}

// copyTree copies a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
