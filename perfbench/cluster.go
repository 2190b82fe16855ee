package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
	"botgrid/internal/replicate"
	"botgrid/internal/rng"
	"botgrid/internal/serve"
)

// The dispatch-http-replicated workload: a 3-node in-process cluster
// (serve.StartCluster, batch fsync, FCFS-Share, one shard) driven through
// serve.ClusterClient by one fetch→report loop per core over the worker
// identities. Every done-report waits for a quorum ack, so replicate,
// JSON/HTTP and the single-shard path do the work; shard routing and the
// wire codec do none.

const (
	clusterNodes = 3
	// clusterBacklog is the pending backlog the feeder holds, in multiples
	// of the worker count.
	clusterBacklog = 2
	// clusterLease is the replication leader lease: short enough that the
	// first election settles quickly, long enough that load never starves
	// a heartbeat past it.
	clusterLease = 500 * time.Millisecond
)

// clusterEnv is one running cluster: per node an HTTP listener in front
// of either a serve.Gate (production assembly) or a tracedNode.
type clusterEnv struct {
	bases  []string
	leader int
	hs     []*http.Server
	served sync.WaitGroup
	stops  []func() error
	cc     *serve.ClusterClient
	closed bool
}

func clusterConfig(o options) serve.Config {
	return serve.Config{
		Policy:     core.FCFSShare,
		MaxWorkers: o.size.httpWorkers,
		Lease:      10 * time.Minute,
		RetryMs:    1,
		Seed:       o.seed,
		Shards:     1,
	}
}

func clusterTarget(o options) int64 {
	return int64(o.size.httpWorkers * (1 + clusterBacklog))
}

// reserveAddrs picks n free loopback ports for the replication listeners,
// which must all be known before any node starts.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := loopbackListener()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		if err := ln.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// nodeStarter starts one node and returns its HTTP handler, a leadership
// probe and its stop function.
type nodeStarter func(rcfg replicate.Config) (http.Handler, func() bool, func() error, error)

// startGate is the production assembly: serve.StartCluster.
func startGate(cfg serve.Config) nodeStarter {
	return func(rcfg replicate.Config) (http.Handler, func() bool, func() error, error) {
		g, err := serve.StartCluster(cfg, rcfg)
		if err != nil {
			return nil, nil, nil, err
		}
		return g, g.Leading, g.Close, nil
	}
}

// startCluster brings up the nodes, waits for a leader and points a
// ClusterClient at it first.
func startCluster(dir string, start nodeStarter) (*clusterEnv, error) {
	replAddrs, err := reserveAddrs(clusterNodes)
	if err != nil {
		return nil, err
	}
	peers := make([]replicate.Peer, clusterNodes)
	for i := range peers {
		peers[i] = replicate.Peer{ID: fmt.Sprintf("n%d", i), Addr: replAddrs[i]}
	}
	e := &clusterEnv{leader: -1}
	leading := make([]func() bool, clusterNodes)
	for i := range peers {
		ln, err := loopbackListener()
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		h, lead, stop, err := start(replicate.Config{
			NodeID:        peers[i].ID,
			Peers:         peers,
			Dir:           filepath.Join(dir, peers[i].ID),
			Lease:         clusterLease,
			AdvertiseHTTP: ln.Addr().String(),
			Fsync:         journal.FsyncBatch,
		})
		if err != nil {
			ln.Close()
			return nil, errors.Join(err, e.close())
		}
		hs := &http.Server{Handler: h}
		e.hs = append(e.hs, hs)
		e.stops = append(e.stops, stop)
		e.bases = append(e.bases, "http://"+ln.Addr().String())
		leading[i] = lead
		e.served.Add(1)
		go func() { defer e.served.Done(); hs.Serve(ln) }()
	}
	for deadline := time.Now().Add(20 * time.Second); e.leader < 0; time.Sleep(2 * time.Millisecond) {
		for i, lead := range leading {
			if lead() {
				e.leader = i
			}
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("no leader elected"), e.close())
		}
	}
	ordered := []string{e.bases[e.leader]}
	for i, b := range e.bases {
		if i != e.leader {
			ordered = append(ordered, b)
		}
	}
	e.cc = serve.NewClusterClient(ordered)
	return e, nil
}

func (e *clusterEnv) leaderStats() (serve.StatsResponse, error) { return e.cc.LeaderStats() }

func (e *clusterEnv) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	var errs []error
	for _, hs := range e.hs {
		hs.Close()
	}
	e.served.Wait()
	for _, stop := range e.stops {
		errs = append(errs, stop())
	}
	return errors.Join(errs...)
}

// setupCluster starts a cluster and primes its backlog.
func setupCluster(o options, dir string, start nodeStarter, b *books) (*clusterEnv, time.Duration, error) {
	t0 := time.Now()
	e, err := startCluster(dir, start)
	if err != nil {
		return nil, 0, err
	}
	str := rng.Root(o.seed, "perfbench-prime")
	for b.low() < clusterTarget(o) {
		bag, err := e.cc.Submit(taskGranularity, bagWorks(str, o.size.bagTasks))
		if err != nil {
			return nil, 0, errors.Join(fmt.Errorf("priming: %w", err), e.close())
		}
		b.submitted(bag, o.size.bagTasks)
	}
	return e, time.Since(t0), nil
}

// httpDriver is one closed fetch→report loop over its worker identities.
type httpDriver struct {
	id      int
	cc      *serve.ClusterClient
	workers []string
	str     *rng.Stream
	books   *books
	target  int64
	bagTask int
	phase   *atomic.Int32
	mw      *middleware // traced run only

	led                                 *ledger
	lat                                 latencies
	dispatched, fetches, reports, stale int64
	failed, attempted                   int64
	requests                            uint64
	transport                           []float64
}

func (d *httpDriver) loop() {
	for {
		for _, w := range d.workers {
			ph := d.phase.Load()
			if ph == phaseStop {
				return
			}
			measure := ph == phaseMeasure
			if d.books.low() < d.target {
				bag, err := d.cc.Submit(taskGranularity, bagWorks(d.str, d.bagTask))
				d.attempted++
				if err != nil {
					d.failed++
				} else {
					d.books.submitted(bag, d.bagTask)
				}
			}
			t0 := time.Now()
			fr, err := d.cc.Fetch(w, 0)
			rtt := time.Since(t0)
			d.attempted++
			if err != nil {
				d.failed++
				continue
			}
			if measure {
				d.fetches++
				d.lat.fetch.add(rtt)
				d.traceRequest("http.fetch", "/v1/workers/"+w+"/fetch", t0, rtt)
			}
			if !fr.Assigned {
				continue
			}
			a := fr.Assignment
			t1 := time.Now()
			ack, err := d.cc.Report(w, a.Replica, serve.StatusDone)
			artt := time.Since(t1)
			d.attempted++
			if measure {
				d.dispatched++
				d.reports++
			}
			if err != nil {
				d.failed++
				continue
			}
			if measure {
				d.traceRequest("http.report", "/v1/workers/"+w+"/report", t1, artt)
			}
			switch ack {
			case serve.AckOK:
				d.led.ack(a.Bag, a.Task)
				d.books.acked(a.Bag)
				if measure {
					d.lat.ack.add(artt)
				}
			case serve.AckStale:
				if measure {
					d.stale++
				}
			}
		}
	}
}

// traceRequest records a request's client span and, as its child, the
// leader's handler span; transport is the client RTT minus handler time.
func (d *httpDriver) traceRequest(name, path string, t0 time.Time, rtt time.Duration) {
	if d.mw == nil {
		return
	}
	id := batchID(d.id, d.requests)
	d.requests++
	root := d.mw.tr.add(name, id, -1, t0, t0.Add(rtt))
	hs, he, ok := d.mw.take(path)
	if !ok {
		return
	}
	d.mw.tr.add("http.handler", id, root, hs, he)
	if name == "http.fetch" {
		d.transport = append(d.transport, (rtt - he.Sub(hs)).Seconds())
	}
}

type clusterLoad struct {
	drivers []*httpDriver
	sc      *scraper
	// start is the scrape taken just before the window opened.
	start   scrape
	rss     rssSlices
	elapsed time.Duration
	err     error
}

func driveCluster(o options, e *clusterEnv, b *books, phase *atomic.Int32, window time.Duration, mw *middleware) *clusterLoad {
	l := &clusterLoad{}
	for c := 0; c < o.parallelism; c++ {
		d := &httpDriver{
			id: c, cc: e.cc, str: rng.Root(o.seed, fmt.Sprintf("perfbench-works-%d", c)),
			books: b, target: clusterTarget(o), bagTask: o.size.bagTasks, phase: phase,
			mw: mw, led: newLedger(),
		}
		for i := c; i < o.size.httpWorkers; i += o.parallelism {
			d.workers = append(d.workers, workerName(c, i))
		}
		l.drivers = append(l.drivers, d)
	}
	l.sc = startScraper(e.leaderStats, b, phase)
	var wg sync.WaitGroup
	for _, d := range l.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.loop()
		}()
	}
	time.Sleep(o.size.warm)
	var err error
	if l.start, err = l.sc.once(); err != nil {
		l.err = fmt.Errorf("stats scrape before the window: %w", err)
	}
	phase.Store(phaseMeasure)
	t0 := time.Now()
	l.rss.begin()
	for end := t0.Add(window); time.Until(end) > 0; l.rss.end() {
		time.Sleep(min(rssSlice, time.Until(end)))
	}
	phase.Store(phaseStop)
	l.elapsed = time.Since(t0)
	l.sc.close()
	wg.Wait()
	return l
}

func (l *clusterLoad) merged() (*ledger, *latencies, *httpDriver) {
	led, lat, tot := newLedger(), &latencies{}, &httpDriver{}
	for _, d := range l.drivers {
		led.merge(d.led)
		lat.merge(&d.lat)
		tot.dispatched += d.dispatched
		tot.fetches += d.fetches
		tot.reports += d.reports
		tot.stale += d.stale
		tot.failed += d.failed
		tot.attempted += d.attempted
		tot.transport = append(tot.transport, d.transport...)
	}
	return led, lat, tot
}

// gateCluster runs the correctness gates on the quiesced cluster: replica
// accounting and the ledger against the leader's stats, and every
// follower's match LSN must reach the leader's last LSN.
func gateCluster(e *clusterEnv, led *ledger) error {
	st, err := e.leaderStats()
	if err != nil {
		return err
	}
	if err := checkConservation(st); err != nil {
		return err
	}
	if err := led.check(st.Bags, st.TasksCompleted); err != nil {
		return err
	}
	return awaitFollowers(e, 10*time.Second)
}

// awaitFollowers waits until every follower has reported the leader's
// last LSN durable.
func awaitFollowers(e *clusterEnv, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		st, err := e.leaderStats()
		if err != nil {
			return err
		}
		r := st.Replication
		behind := ""
		if len(r.Followers) != clusterNodes-1 {
			behind = fmt.Sprintf("%d followers known", len(r.Followers))
		}
		for _, f := range r.Followers {
			if f.MatchLSN < r.LastLSN {
				behind = fmt.Sprintf("follower %s at LSN %d, leader at %d", f.ID, f.MatchLSN, r.LastLSN)
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication: %s after %v", behind, limit)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func runCluster(o options, out *report) error {
	if o.trace {
		return traceCluster(o, out)
	}
	dir, err := freshDir(o, "cluster")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var setups []float64
	var e *clusterEnv
	var b *books
	for i := 0; i < o.size.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		b = newBooks(1)
		var took time.Duration
		e, took, err = setupCluster(o, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), startGate(clusterConfig(o)), b)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer e.close()
	out.set("setup_s", median(setups))

	l := driveCluster(o, e, b, &atomic.Int32{}, o.window(), nil)
	led, lat, tot := l.merged()
	out.attempted, out.failed = tot.attempted, tot.failed
	if l.err != nil {
		return l.err
	}
	if err := l.sc.checkValidity(); err != nil {
		return err
	}
	if err := gateCluster(e, led); err != nil {
		return err
	}
	out.details["setups_s"] = setups
	out.details["rss_slice_peaks_mb"] = l.rss.peaks
	out.set("max_rss_mb", l.rss.median())
	windowSeries(out, l.sc)
	return resultMetrics(out, lat, tot.dispatched, l.elapsed)
}

// timedLog wraps the leader's quorum-ack Replica (serve.Log) and times
// Append and WaitDurable. Their spans are roots: the Log seam carries no
// request identity. The span ID is the record's LSN.
type timedLog struct {
	serve.Log
	tr             *tracer
	active         *atomic.Int32
	mu             sync.Mutex
	appends, waits samples
}

func (t *timedLog) Append(r *journal.Record) (uint64, error) {
	t0 := time.Now()
	lsn, err := t.Log.Append(r)
	t.record("replicate.append", &t.appends, lsn, t0)
	return lsn, err
}

func (t *timedLog) WaitDurable(lsn uint64) error {
	t0 := time.Now()
	err := t.Log.WaitDurable(lsn)
	t.record("replicate.wait_durable", &t.waits, lsn, t0)
	return err
}

func (t *timedLog) record(name string, s *samples, lsn uint64, t0 time.Time) {
	t1 := time.Now()
	if t.active.Load() != phaseMeasure {
		return
	}
	t.tr.add(name, lsn, -1, t0, t1)
	t.mu.Lock()
	s.add(t1.Sub(t0))
	t.mu.Unlock()
}

// middleware times the leader's HTTP handler per request and keeps each
// request's handler time until the driver collects it, keyed by path
// (each worker has at most one request in flight).
type middleware struct {
	next   func() http.Handler
	tr     *tracer
	active *atomic.Int32

	mu      sync.Mutex
	fetch   samples
	report  samples
	pending map[string][2]time.Time
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := m.next()
	if h == nil {
		// Not leading: refuse, so the client rotates to the leader.
		http.Error(w, `{"error":"not leading"}`, http.StatusServiceUnavailable)
		return
	}
	t0 := time.Now()
	h.ServeHTTP(w, r)
	t1 := time.Now()
	if m.active.Load() != phaseMeasure {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case strings.HasSuffix(r.URL.Path, "/fetch"):
		m.fetch.add(t1.Sub(t0))
	case strings.HasSuffix(r.URL.Path, "/report"):
		m.report.add(t1.Sub(t0))
	default:
		return
	}
	m.pending[r.URL.Path] = [2]time.Time{t0, t1}
}

// take returns and forgets the handler interval of the last request on
// path.
func (m *middleware) take(path string) (start, end time.Time, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	iv, ok := m.pending[path]
	delete(m.pending, path)
	return iv[0], iv[1], ok
}

// tracedNodes assembles cluster nodes through the public seams
// StartCluster uses — replicate.Open, Node.Start with an OnLeader
// callback, serve.NewServer with Config.Log — with the Replica wrapped in
// a timedLog and the handler in the middleware.
type tracedNodes struct {
	cfg    serve.Config
	tr     *tracer
	active *atomic.Int32
	mu     sync.Mutex
	logs   []*timedLog
	mws    []*middleware
}

func (t *tracedNodes) start(rcfg replicate.Config) (http.Handler, func() bool, func() error, error) {
	node, err := replicate.Open(rcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var srv atomic.Pointer[serve.Server]
	mw := &middleware{tr: t.tr, active: t.active, pending: map[string][2]time.Time{}, next: func() http.Handler {
		if s := srv.Load(); s != nil {
			return s
		}
		return nil
	}}
	t.mu.Lock()
	t.mws = append(t.mws, mw)
	t.mu.Unlock()
	cb := replicate.Callbacks{
		OnLeader: func(rep *replicate.Replica, rec *journal.Recovered) error {
			tl := &timedLog{Log: rep, tr: t.tr, active: t.active}
			scfg := t.cfg
			scfg.Log = tl
			scfg.Recovered = rec
			scfg.Replication = node
			s, err := serve.NewServer(scfg)
			if err != nil {
				return err
			}
			t.mu.Lock()
			t.logs = append(t.logs, tl)
			t.mu.Unlock()
			srv.Store(s)
			return nil
		},
		OnFollower: func() {
			if s := srv.Swap(nil); s != nil {
				if err := s.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: closing deposed leader:", err)
				}
			}
		},
	}
	if err := node.Start(cb); err != nil {
		return nil, nil, nil, errors.Join(err, node.Stop())
	}
	stop := func() error {
		err := node.Stop()
		if s := srv.Swap(nil); s != nil {
			err = errors.Join(err, s.Close())
		}
		return err
	}
	return mw, func() bool { return srv.Load() != nil }, stop, nil
}

// traceCluster is the traced run: an untraced half window on a
// StartCluster cluster for the reference rate, then a traced cluster for
// the other half.
func traceCluster(o options, out *report) error {
	dir, err := freshDir(o, "cluster-trace")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	half := o.window() / 2

	b := newBooks(1)
	e, _, err := setupCluster(o, filepath.Join(dir, "plain"), startGate(clusterConfig(o)), b)
	if err != nil {
		return err
	}
	l := driveCluster(o, e, b, &atomic.Int32{}, half, nil)
	if err := e.close(); err != nil {
		return err
	}
	_, _, plain := l.merged()
	plainRate := float64(plain.dispatched) / l.elapsed.Seconds()

	phase := &atomic.Int32{}
	tr := newTracer()
	tn := &tracedNodes{cfg: clusterConfig(o), tr: tr, active: phase}
	b = newBooks(1)
	e, _, err = setupCluster(o, filepath.Join(dir, "traced"), tn.start, b)
	if err != nil {
		return err
	}
	defer e.close()
	mw := tn.mws[e.leader]
	l = driveCluster(o, e, b, phase, half, mw)
	led, lat, tot := l.merged()
	out.attempted, out.failed = tot.attempted, tot.failed
	if l.err != nil {
		return l.err
	}
	if err := l.sc.checkValidity(); err != nil {
		return err
	}
	if err := gateCluster(e, led); err != nil {
		return err
	}
	rate := float64(tot.dispatched) / l.elapsed.Seconds()
	out.set("trace_overhead_frac", 1-rate/plainRate)

	ms := func(xs []float64, p float64) float64 { return pct(xs, p) * 1e3 }
	us := func(xs []float64, p float64) float64 { return pct(xs, p) * 1e6 }
	out.set("http.fetch_rtt_ms.p50", ms(lat.fetch, 0.5))
	out.set("http.fetch_rtt_ms.p99", ms(lat.fetch, 0.99))
	out.set("http.report_rtt_ms.p50", ms(lat.ack, 0.5))
	out.set("http.report_rtt_ms.p99", ms(lat.ack, 0.99))
	mw.mu.Lock()
	out.set("http.fetch_handler_us.p50", us(mw.fetch, 0.5))
	out.set("http.fetch_handler_us.p99", us(mw.fetch, 0.99))
	out.set("http.report_handler_us.p50", us(mw.report, 0.5))
	out.set("http.report_handler_us.p99", us(mw.report, 0.99))
	mw.mu.Unlock()
	out.set("http.transport_us.p50", us(tot.transport, 0.5))
	tn.mu.Lock()
	var appends, waits []float64
	for _, tl := range tn.logs {
		tl.mu.Lock()
		appends = append(appends, tl.appends...)
		waits = append(waits, tl.waits...)
		tl.mu.Unlock()
	}
	tn.mu.Unlock()
	out.set("replicate.append_us.p50", us(appends, 0.5))
	out.set("replicate.wait_durable_ms.p50", ms(waits, 0.5))
	out.set("replicate.wait_durable_ms.p99", ms(waits, 0.99))

	w := l.sc.window()
	lag := 0.0
	for _, sc := range w {
		r := sc.st.Replication
		if r == nil || len(r.Followers) == 0 {
			continue
		}
		minMatch := r.Followers[0].MatchLSN
		for _, f := range r.Followers[1:] {
			minMatch = min(minMatch, f.MatchLSN)
		}
		lag = max(lag, float64(r.LastLSN-min(minMatch, r.LastLSN)))
	}
	out.set("replicate.follower_lag.max", lag)
	first, last := l.start.st.Journal, w[len(w)-1].st.Journal
	if first != nil && last != nil {
		out.set("journal.records_per_fsync", ratio(float64(last.Appends-first.Appends), float64(last.Fsyncs-first.Fsyncs)))
	}
	out.set("core.assigned_frac", ratio(float64(tot.dispatched), float64(tot.fetches)))
	out.set("core.stale_frac", ratio(float64(tot.stale), float64(tot.reports)))
	l.sc.statsMetrics(out)
	out.details["rate_untraced_per_s"] = plainRate
	out.details["rate_traced_per_s"] = rate
	out.tr = tr
	return nil
}
