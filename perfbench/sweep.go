package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/experiment"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
	"botgrid/internal/stats"
	"botgrid/internal/workload"
)

// The sweep workload reproduces paper panel F2d (Het-LowAvail, U=0.9, all
// five policies × four granularities) at paper scale through
// experiment.RunSweep, under the paper's 95 % / 2.5 % stopping rule with
// MaxReps capped three above the paper's MinReps, so one panel takes about
// twenty seconds on two cores while the rule still stops some cells early
// (and the pool's speculative reps past those stops are discarded).
// Within the panel, gran=1000 cells are scheduler-bound and gran=125000
// cells churn-bound, so core/des and grid/checkpoint each carry most of
// the work in half the cells.

const (
	sweepFigure  = "F2d"
	sweepMaxReps = 8
	// quickPinSeed is the fixed seed of the set-up panel, whose digest is
	// pinned whatever --seed the run was given.
	quickPinSeed = 2008
	// defaultSeed is the --seed whose paper-scale digest is pinned.
	defaultSeed = 1
)

// Pinned sha256 digests over FigureResult.WriteJSON in SortedIDs order. A
// change that alters either changed the paper's numbers.
var (
	quickPinDigest = "a204d13cc8f94854b37e7919aa6091ce752d2855ae561aee93e1deb529438477"
	paperPinDigest = "e58b75fee6922634053c0cfab3a7f3aac99935f9b6f65141a17a52abd38177db"
)

// paperPanel is the measured panel's configuration for a seed.
func paperPanel(seed uint64, parallelism int) experiment.Options {
	o := experiment.DefaultOptions(seed)
	o.MaxReps = sweepMaxReps
	o.Parallelism = parallelism
	return o
}

// quickPanel is the figure at one tenth scale, loosely converged: the
// set-up panel (under quickPinSeed) and the smoke tests' measured panel.
func quickPanel(seed uint64, parallelism int) experiment.Options {
	o := experiment.QuickOptions(seed)
	o.Parallelism = parallelism
	return o
}

// panelDigest is the sweep-parity digest: sha256 over every figure's JSON
// export in catalog order.
func panelDigest(rs map[string]*experiment.FigureResult) (string, error) {
	h := sha256.New()
	for _, id := range experiment.SortedIDs(rs) {
		if err := rs[id].WriteJSON(h); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkDigest fails when got differs from the pinned want.
func checkDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s digest %s, pinned %s", what, got, want)
	}
	return nil
}

// runPanel runs the panel once and returns its results and wall time.
func runPanel(o experiment.Options) (map[string]*experiment.FigureResult, time.Duration, error) {
	f, err := experiment.FigureByID(sweepFigure)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	rs, err := experiment.RunSweep([]experiment.Figure{f}, o)
	el := time.Since(t0)
	if err != nil {
		return rs, el, fmt.Errorf("sweep: %w", err)
	}
	return rs, el, nil
}

// repUnit is one published replication of the panel.
type repUnit struct {
	gran float64
	pol  core.PolicyKind
	rep  int
}

// publishedUnits lists every replication the panel published, cell by
// cell in rep order.
func publishedUnits(fr *experiment.FigureResult) []repUnit {
	var out []repUnit
	for _, row := range fr.Cells {
		for _, c := range row {
			for r := 0; r < c.Reps; r++ {
				out = append(out, repUnit{c.Granularity, c.Policy, r})
			}
		}
	}
	return out
}

// replayed is one published replication re-run on its own.
type replayed struct {
	res      core.Result
	obs      countObserver
	gen, run time.Duration
}

// replay re-runs unit u of fr on r under the options the sweep recorded
// (RunSweep fills defaults such as the checkpoint configuration, which
// the arrival rate depends on), counting scheduling events through an
// Observer and timing workload generation on its own. tr, when non-nil,
// records the replication's spans under id.
func replay(r *core.Runner, fr *experiment.FigureResult, u repUnit, tr *tracer, id uint64) (replayed, error) {
	var rp replayed
	cfg := fr.Options.CellConfig(fr.Figure, u.gran, u.pol, u.rep)
	g0 := time.Now()
	gen := workload.NewGenerator(cfg.Workload, rng.Root(cfg.Seed, "tasks"), rng.Root(cfg.Seed, "arrivals"))
	_ = gen.Take(cfg.NumBoTs)
	r0 := time.Now()
	cfg.Observer = &rp.obs
	res, err := r.Run(cfg)
	r1 := time.Now()
	if err != nil {
		return rp, fmt.Errorf("replay gran=%g %s rep %d: %w", u.gran, u.pol, u.rep, err)
	}
	rp.res, rp.gen, rp.run = res, r0.Sub(g0), r1.Sub(r0)
	if tr != nil {
		tr.addAll([]span{
			{Name: "replication", ID: id, Parent: -1, Start: tr.ns(g0), End: tr.ns(r1)},
			{Name: "workload.generate", ID: id, Parent: 0, Start: tr.ns(g0), End: tr.ns(r0)},
			{Name: "core.run", ID: id, Parent: 0, Start: tr.ns(r0), End: tr.ns(r1)},
		})
	}
	return rp, nil
}

// foldCheck folds each cell's replayed mean turnarounds in rep order,
// exactly as the sweep's deterministic fold does, and requires the
// published cell means to match bit for bit. This checks the pool's wave,
// speculation and discard bookkeeping against a plain sequential replay.
// results are in publishedUnits order. It returns the total simulation
// events.
func foldCheck(fr *experiment.FigureResult, results []core.Result) (uint64, error) {
	if err := checkReps(fr); err != nil {
		return 0, err
	}
	var events uint64
	i := 0
	for _, row := range fr.Cells {
		for _, c := range row {
			var acc stats.Accumulator
			for r := 0; r < c.Reps; r, i = r+1, i+1 {
				events += results[i].EventsFired
				if len(results[i].Bags) > 0 {
					acc.Add(results[i].MeanTurnaround())
				}
			}
			if got := acc.CI(fr.Options.Confidence).Mean; math.Float64bits(got) != math.Float64bits(c.CI.Mean) {
				return 0, fmt.Errorf("cell gran=%g %s: published mean %v, replay %v", c.Granularity, c.Policy, c.CI.Mean, got)
			}
		}
	}
	if i != len(results) {
		return 0, fmt.Errorf("replayed %d replications, panel published %d", len(results), i)
	}
	return events, nil
}

// sweepSetup runs the set-up panel `times` times, checking its pinned
// digest, and returns each wall time in seconds.
func sweepSetup(parallelism, times int) ([]float64, error) {
	var ts []float64
	for i := 0; i < times; i++ {
		rs, el, err := runPanel(quickPanel(quickPinSeed, parallelism))
		if err != nil {
			return nil, err
		}
		d, err := panelDigest(rs)
		if err != nil {
			return nil, err
		}
		if err := checkDigest("set-up panel", d, quickPinDigest); err != nil {
			return nil, err
		}
		ts = append(ts, el.Seconds())
	}
	return ts, nil
}

// minPanels is the least number of timed panels in an untraced run;
// sweep_s is their median.
const minPanels = 2

func runSweep(o options, out *report) error {
	par := o.parallelism
	setups, err := sweepSetup(par, o.size.setups)
	if err != nil {
		return err
	}
	out.set("setup_s", median(setups))
	out.details["setups_s"] = setups
	if o.trace {
		return traceSweep(o, out)
	}

	// Time the panel repeatedly until the window is used up (at least
	// minPanels times); every repeat must digest identically. Meanwhile
	// the resident-set peak is taken per slice, as on the live workloads.
	opts := o.size.panel(o.seed, par)
	var times []float64
	var first map[string]*experiment.FigureResult
	var firstDigest string
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			start := time.Now()
			for len(times) < minPanels || time.Since(start) < o.window() {
				rs, el, err := runPanel(opts)
				out.attempted += int64(countCells(rs))
				if err != nil {
					out.failed += int64(countCells(rs))
					return err
				}
				d, err := panelDigest(rs)
				if err != nil {
					return err
				}
				if first == nil {
					first, firstDigest = rs, d
				} else if d != firstDigest {
					return fmt.Errorf("panel digest changed between repeats: %s then %s", firstDigest, d)
				}
				times = append(times, el.Seconds())
			}
			return nil
		}()
	}()
	var rss rssSlices
	if err := rss.until(done); err != nil {
		return err
	}
	if err := checkPaperPin(o, firstDigest); err != nil {
		return err
	}
	fr := first[sweepFigure]
	if err := checkReps(fr); err != nil {
		return err
	}
	sweepS := median(times)
	out.set("throughput_per_s", float64(len(publishedUnits(fr)))/sweepS)
	out.set("result_p50_ms", sweepS*1e3)
	out.set("max_rss_mb", rss.median())
	out.details["rss_slice_peaks_mb"] = rss.peaks
	out.details["panel_digest"] = firstDigest
	out.details["panel_s"] = times
	out.details["published_reps"] = len(publishedUnits(fr))
	return nil
}

// checkReps requires every cell to have published between MinReps and
// MaxReps replications.
func checkReps(fr *experiment.FigureResult) error {
	o := fr.Options
	for _, row := range fr.Cells {
		for _, c := range row {
			if c.Reps < o.MinReps || c.Reps > o.MaxReps {
				return fmt.Errorf("cell gran=%g %s published %d reps, want %d..%d", c.Granularity, c.Policy, c.Reps, o.MinReps, o.MaxReps)
			}
		}
	}
	return nil
}

// checkPaperPin checks the measured panel's digest when the run used the
// seed it is pinned for.
func checkPaperPin(o options, digest string) error {
	if o.seed != defaultSeed || !o.size.paperScale {
		return nil
	}
	return checkDigest("paper-scale panel", digest, paperPinDigest)
}

func countCells(rs map[string]*experiment.FigureResult) int {
	n := 0
	for _, fr := range rs {
		for _, row := range fr.Cells {
			n += len(row)
		}
	}
	return n
}

// countObserver counts scheduling events through core's Observer seam.
type countObserver struct {
	dispatches, machineFailures, checkpointSaves int
}

func (c *countObserver) BagSubmitted(float64, *core.Bag)                  {}
func (c *countObserver) BagCompleted(float64, *core.Bag)                  {}
func (c *countObserver) ReplicaStarted(float64, *core.Replica, bool)      { c.dispatches++ }
func (c *countObserver) ReplicaFailed(float64, *core.Task, *grid.Machine) {}
func (c *countObserver) TaskCompleted(float64, *core.Task, int)           {}
func (c *countObserver) CheckpointSaved(float64, *core.Task, float64)     { c.checkpointSaves++ }
func (c *countObserver) MachineFailed(float64, *grid.Machine)             { c.machineFailures++ }
func (c *countObserver) MachineRepaired(float64, *grid.Machine)           {}

// traceSweep is the sweep's traced run: one timed panel, then every
// published replication replayed on one warm Runner (see replay), giving
// the sim path's per-layer numbers.
func traceSweep(o options, out *report) error {
	par := o.parallelism
	opts := o.size.panel(o.seed, par)
	rs, el, err := runPanel(opts)
	out.attempted += int64(countCells(rs))
	if err != nil {
		out.failed += int64(countCells(rs))
		return err
	}
	sweepS := el.Seconds()
	d, err := panelDigest(rs)
	if err != nil {
		return err
	}
	if err := checkPaperPin(o, d); err != nil {
		return err
	}
	fr := rs[sweepFigure]
	units := publishedUnits(fr)
	results := make([]core.Result, len(units))
	tr := newTracer()
	var r core.Runner

	// Untraced reference: rep 0 of every cell, no Observer, no spans.
	var refNs, refEvents float64
	for _, u := range units {
		if u.rep != 0 {
			continue
		}
		t0 := time.Now()
		res, err := r.Run(fr.Options.CellConfig(fr.Figure, u.gran, u.pol, u.rep))
		if err != nil {
			return err
		}
		refNs += float64(time.Since(t0))
		refEvents += float64(res.EventsFired)
	}

	var (
		runTime, events, tracedRefNs, tracedRefEvents float64
		dispatches, started, completed                float64
		churnFailures, churnTransfers, churnReps      float64
		genMs                                         []float64
		repMs                                         = map[float64][]float64{}
	)
	for i, u := range units {
		rp, err := replay(&r, fr, u, tr, uint64(i))
		if err != nil {
			return err
		}
		res := rp.res
		results[i] = res
		runTime += rp.run.Seconds()
		events += float64(res.EventsFired)
		if u.rep == 0 {
			tracedRefNs += float64(rp.run)
			tracedRefEvents += float64(res.EventsFired)
		}
		dispatches += float64(rp.obs.dispatches)
		started += float64(res.ReplicasStarted)
		completed += float64(res.TasksCompleted)
		genMs = append(genMs, rp.gen.Seconds()*1e3)
		repMs[u.gran] = append(repMs[u.gran], rp.run.Seconds()*1e3)
		if u.gran == 125000 {
			churnReps++
			churnFailures += float64(rp.obs.machineFailures)
			churnTransfers += float64(res.CheckpointSaves + res.CheckpointRetrieves)
		}
	}
	if _, err := foldCheck(fr, results); err != nil {
		return err
	}
	n := float64(len(units))
	out.set("core.rep_ms.g1000", median(repMs[1000]))
	out.set("core.rep_ms.g125000", median(repMs[125000]))
	out.set("core.ns_per_event", runTime*1e9/events)
	out.set("des.events_per_rep", events/n)
	out.set("core.dispatches_per_rep", dispatches/n)
	out.set("core.replicas_per_task", started/completed)
	out.set("grid.failures_per_rep", ratio(churnFailures, churnReps))
	out.set("checkpoint.transfers_per_rep", ratio(churnTransfers, churnReps))
	out.set("workload.gen_ms_per_rep", median(genMs))
	out.set("experiment.busy_frac", runTime/(float64(par)*sweepS))
	out.set("experiment.reps", n)
	out.set("trace_overhead_frac", 1-(tracedRefEvents/tracedRefNs)/(refEvents/refNs))
	out.tr = tr
	return nil
}
