// Package experiment reproduces the paper's evaluation (Section 4): it
// defines the scenario catalog (Desktop Grid configurations × workloads),
// runs replicated simulations in parallel until the paper's confidence
// criterion is met (95 % intervals, ≤2.5 % relative error), and renders the
// per-figure tables and bar charts.
package experiment

import (
	"fmt"
	"runtime"

	"botgrid/internal/checkpoint"
	"botgrid/internal/core"
	"botgrid/internal/grid"
	"botgrid/internal/workload"
)

// Figure identifies one panel of the paper's evaluation figures: a grid
// configuration and a workload intensity. Each panel sweeps the four task
// granularities for every policy.
type Figure struct {
	// ID is the experiment identifier used throughout the repo ("F1a").
	ID string
	// Caption describes the panel as in the paper.
	Caption string
	// Het and Avail select the Desktop Grid configuration.
	Het   grid.Heterogeneity
	Avail grid.Availability
	// Util is the target grid utilization (workload intensity).
	Util float64
}

// Figures lists every panel of the paper's Figures 1 and 2, plus the
// MedAvail panels the paper describes only in prose ("do not significantly
// differ").
var Figures = []Figure{
	{"F1a", "Fig. 1(a): Hom-HighAvail, low intensity (U=0.50)", grid.Hom, grid.HighAvail, workload.LowIntensity},
	{"F1b", "Fig. 1(b): Het-HighAvail, low intensity (U=0.50)", grid.Het, grid.HighAvail, workload.LowIntensity},
	{"F1c", "Fig. 1(c): Hom-HighAvail, high intensity (U=0.90)", grid.Hom, grid.HighAvail, workload.HighIntensity},
	{"F1d", "Fig. 1(d): Het-HighAvail, high intensity (U=0.90)", grid.Het, grid.HighAvail, workload.HighIntensity},
	{"F2a", "Fig. 2(a): Hom-LowAvail, low intensity (U=0.50)", grid.Hom, grid.LowAvail, workload.LowIntensity},
	{"F2b", "Fig. 2(b): Het-LowAvail, low intensity (U=0.50)", grid.Het, grid.LowAvail, workload.LowIntensity},
	{"F2c", "Fig. 2(c): Hom-LowAvail, high intensity (U=0.90)", grid.Hom, grid.LowAvail, workload.HighIntensity},
	{"F2d", "Fig. 2(d): Het-LowAvail, high intensity (U=0.90)", grid.Het, grid.LowAvail, workload.HighIntensity},
	{"FMa", "MedAvail check (§4.3): Hom-MedAvail, low intensity (U=0.50)", grid.Hom, grid.MedAvail, workload.LowIntensity},
	{"FMb", "MedAvail check (§4.3): Het-MedAvail, low intensity (U=0.50)", grid.Het, grid.MedAvail, workload.LowIntensity},
	{"FMc", "MedAvail check (§4.3): Hom-MedAvail, high intensity (U=0.90)", grid.Hom, grid.MedAvail, workload.HighIntensity},
	{"FMd", "MedAvail check (§4.3): Het-MedAvail, high intensity (U=0.90)", grid.Het, grid.MedAvail, workload.HighIntensity},
}

// FigureByID finds a figure definition by its experiment identifier.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("experiment: unknown figure %q", id)
}

// Options tunes the experiment harness. The zero value is not useful;
// start from DefaultOptions (paper scale) or QuickOptions (CI-friendly).
type Options struct {
	// Seed is the base seed; replication r of a cell uses a seed derived
	// from it, the cell parameters and r.
	Seed uint64
	// NumBoTs is the number of BoT arrivals simulated per replication.
	NumBoTs int
	// Warmup is the number of initial completions discarded.
	Warmup int
	// MinReps and MaxReps bound the sequential replication procedure.
	MinReps, MaxReps int
	// RelErr is the target CI half-width relative to the mean (paper:
	// 0.025 at 95 % confidence).
	RelErr float64
	// Confidence is the CI level (paper: 0.95).
	Confidence float64
	// Parallelism caps concurrent simulations (default: GOMAXPROCS).
	Parallelism int
	// Scale shrinks the grid's total power and the application size by
	// the same factor, preserving the tasks-per-bag : machines ratios
	// that drive the paper's analysis. 1 is paper scale; tests use 0.1.
	Scale float64
	// Policies are the bag-selection policies to compare.
	Policies []core.PolicyKind
	// Granularities are the BoT types to sweep.
	Granularities []float64
	// Threshold overrides the WQR-FT replication threshold (default 2).
	Threshold int
	// DynamicReplication enables the dynamic WQR-FT variant.
	DynamicReplication bool
	// Checkpoint overrides the checkpoint configuration; zero value
	// means the paper's defaults.
	Checkpoint checkpoint.Config
}

// DefaultOptions returns paper-scale settings: the full 1000-power grid,
// 2.5e6-second applications, 200 arrivals per replication.
func DefaultOptions(seed uint64) Options {
	return Options{
		Seed:          seed,
		NumBoTs:       200,
		Warmup:        40,
		MinReps:       5,
		MaxReps:       30,
		RelErr:        0.025,
		Confidence:    0.95,
		Scale:         1,
		Policies:      core.PaperKinds,
		Granularities: workload.DefaultGranularities,
		Threshold:     2,
	}
}

// QuickOptions returns a 10×-scaled-down, loosely-converged variant for
// tests, examples and benchmarks: a 10-machine grid with the same
// granularities and tasks-per-bag:machines ratios as the paper.
func QuickOptions(seed uint64) Options {
	o := DefaultOptions(seed)
	o.Scale = 0.1
	o.NumBoTs = 60
	o.Warmup = 10
	o.MinReps = 3
	o.MaxReps = 6
	o.RelErr = 0.25 // loose: quick runs only need the right ordering
	return o
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Threshold == 0 {
		o.Threshold = 2
	}
	if o.Checkpoint == (checkpoint.Config{}) {
		o.Checkpoint = checkpoint.DefaultConfig()
	}
	if len(o.Policies) == 0 {
		o.Policies = core.PaperKinds
	}
	if len(o.Granularities) == 0 {
		o.Granularities = workload.DefaultGranularities
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.RelErr == 0 {
		o.RelErr = 0.025
	}
	if o.MinReps == 0 {
		o.MinReps = 3
	}
	if o.MaxReps < o.MinReps {
		o.MaxReps = o.MinReps
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.NumBoTs <= 0 {
		return fmt.Errorf("experiment: NumBoTs %d must be positive", o.NumBoTs)
	}
	if o.Warmup < 0 || o.Warmup >= o.NumBoTs {
		return fmt.Errorf("experiment: Warmup %d must be in [0, NumBoTs)", o.Warmup)
	}
	if o.Scale < 0 || o.Scale > 1 {
		return fmt.Errorf("experiment: Scale %v must be in (0, 1]", o.Scale)
	}
	return nil
}

// AppSize returns the application size after scaling.
func (o Options) AppSize() float64 { return workload.DefaultAppSize * o.Scale }

// GridConfig returns the scaled grid configuration for a figure.
func (o Options) GridConfig(f Figure) grid.Config {
	gc := grid.DefaultConfig(f.Het, f.Avail)
	gc.TotalPower *= o.Scale
	return gc
}

// CellConfig assembles the core.RunConfig for one (figure, granularity,
// policy, replication) cell. Seeds mix the cell coordinates so that every
// cell uses independent randomness while staying reproducible. Unset
// options take their defaults first, so the cell is the one RunSweep runs
// whether or not o was defaulted (the arrival rate depends on the
// checkpoint configuration).
func (o Options) CellConfig(f Figure, granularity float64, policy core.PolicyKind, rep int) core.RunConfig {
	o = o.withDefaults()
	gc := o.GridConfig(f)
	lambda := workload.LambdaForUtilization(f.Util, o.AppSize(), core.EffectivePower(gc, o.Checkpoint))
	return core.RunConfig{
		Seed: cellSeed(o.Seed, f.ID, granularity, policy, rep),
		Grid: gc,
		Workload: workload.Config{
			Granularities: []float64{granularity},
			AppSize:       o.AppSize(),
			Spread:        workload.DefaultSpread,
			Lambda:        lambda,
		},
		Policy:     policy,
		Sched:      core.SchedConfig{Threshold: o.Threshold, DynamicReplication: o.DynamicReplication},
		Checkpoint: o.Checkpoint,
		NumBoTs:    o.NumBoTs,
		Warmup:     o.Warmup,
	}
}

// cellSeed mixes the experiment coordinates into a 64-bit seed (FNV-1a over
// the textual coordinates).
func cellSeed(base uint64, figID string, gran float64, policy core.PolicyKind, rep int) uint64 {
	const prime = 1099511628211
	h := base ^ 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	mix(figID)
	mix(fmt.Sprintf("|%g|%d|%d", gran, policy, rep))
	return h
}
