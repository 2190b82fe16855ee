package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"botgrid/internal/core"
	"botgrid/internal/serve"
)

func TestPct(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := pct(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(pct(nil, 0.5)) {
		t.Error("pct of no samples must be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// acked builds a ledger with the given (bag, task) acks.
func acked(pairs ...[2]int) *ledger {
	l := newLedger()
	for _, p := range pairs {
		l.ack(p[0], p[1])
	}
	return l
}

func TestLedger(t *testing.T) {
	bags := []serve.BagStatus{{Bag: 0, Tasks: 3, Done: 2}, {Bag: 1, Tasks: 3, Done: 1}, {Bag: 2, Tasks: 3}}
	full := [][2]int{{0, 0}, {0, 2}, {1, 1}}
	if err := acked(full...).check(bags, 3); err != nil {
		t.Fatalf("matching ledger rejected: %v", err)
	}

	// Split across two drivers and merged: same verdict.
	a, b := acked(full[:1]...), acked(full[1:]...)
	a.merge(b)
	if err := a.check(bags, 3); err != nil {
		t.Fatalf("merged ledger rejected: %v", err)
	}

	cases := map[string]struct {
		l         *ledger
		completed int
	}{
		"missing one acked report": {acked(full[:2]...), 3},
		"acked twice":              {acked(append(full, [2]int{0, 0})...), 3},
		"unknown bag":              {acked(append(full, [2]int{7, 0})...), 4},
		"server completed more":    {acked(full...), 4},
	}
	for name, c := range cases {
		if err := c.l.check(bags, c.completed); err == nil {
			t.Errorf("%s: ledger check passed, want failure", name)
		}
	}
}

func TestConservation(t *testing.T) {
	st := serve.StatsResponse{ReplicasStarted: 10, TasksCompleted: 6, ReplicasKilled: 2, ReplicaFailures: 1, RunningReplicas: 1}
	if err := checkConservation(st); err != nil {
		t.Fatal(err)
	}
	st.RunningReplicas = 0
	if err := checkConservation(st); err == nil {
		t.Fatal("a lost replica passed the accounting check")
	}
}

func TestPanelDigest(t *testing.T) {
	rs, _, err := runPanel(quickPanel(quickPinSeed, 2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := panelDigest(rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest("set-up panel", d, quickPinDigest); err != nil {
		t.Fatal(err)
	}
	if checkDigest("set-up panel", d, strings.Repeat("0", 64)) == nil {
		t.Fatal("a wrong digest passed")
	}
	// Any change to a published number changes the digest.
	rs[sweepFigure].Cells[0][0].CI.Mean += 1
	if d2, _ := panelDigest(rs); d2 == d {
		t.Fatal("digest ignored a changed cell")
	}
}

func TestFoldCheck(t *testing.T) {
	rs, _, err := runPanel(quickPanel(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	fr := rs[sweepFigure]
	var r core.Runner
	var results []core.Result
	for i, u := range publishedUnits(fr) {
		rp, err := replay(&r, fr, u, nil, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, rp.res)
	}
	events, err := foldCheck(fr, results)
	if err != nil {
		t.Fatalf("replay disagrees with the sweep: %v", err)
	}
	if events == 0 {
		t.Fatal("replay fired no events")
	}
	fr.Cells[1][2].CI.Mean *= 1.0000001
	if _, err := foldCheck(fr, results); err == nil {
		t.Fatal("a tampered cell mean passed the fold check")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to what the driver emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, driver runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, driver %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, driver %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestTracedLists holds each workload's traced list to perLayer.
func TestTracedLists(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for w := range workloads {
		if len(traced[w]) == 0 {
			t.Errorf("%s: no traced metrics declared", w)
		}
		for _, name := range traced[w] {
			if !known[name] {
				t.Errorf("%s: traced metric %s is not a per-layer metric", w, name)
			}
		}
	}
}

// TestMissingTracedMetric: a traced run that fails to measure a metric
// its workload declares fails instead of reading 0.
func TestMissingTracedMetric(t *testing.T) {
	workloads["partial"] = func(_ options, r *report) error {
		r.attempted = 1
		r.set("core.rep_ms.g1000", 1)
		return nil
	}
	traced["partial"] = []string{"core.rep_ms.g1000", "core.ns_per_event"}
	defer delete(workloads, "partial")
	defer delete(traced, "partial")
	o := options{workload: "partial", trace: true}
	if _, _, err := run(o); err == nil || !strings.Contains(err.Error(), "core.ns_per_event") {
		t.Fatalf("run = %v, want a missing core.ns_per_event", err)
	}
	traced["partial"] = traced["partial"][:1]
	line, _, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if v := line.Metrics["core.ns_per_event"].Value; v != 0 {
		t.Fatalf("undeclared metric reads %v, want 0", v)
	}
}

// mayBeZero are traced metrics a short smoke run can measure as 0.
var mayBeZero = map[string]bool{
	"shard.rebalances": true, "shard.worker_moves": true, "core.stale_frac": true,
	"replicate.follower_lag.max": true,
}

// smoke runs a workload at smoke size and checks its result line.
func smoke(t *testing.T, workload string, seconds float64, trace bool) {
	t.Helper()
	o := options{
		workload: workload, seed: 3, seconds: seconds, trace: trace,
		out: t.TempDir(), parallelism: 2, size: smokeSize,
	}
	line, rep, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Fatalf("result %+v", line)
	}
	defs, want := endToEnd, e2eNames
	if trace {
		defs, want = perLayer, traced[workload]
	}
	if len(line.Metrics) != len(defs) {
		t.Fatalf("%d metrics, want %d", len(line.Metrics), len(defs))
	}
	for _, name := range want {
		if m, ok := line.Metrics[name]; !ok || (m.Value == 0 && !mayBeZero[name]) {
			t.Errorf("%s = %+v, want a measured nonzero value", name, m)
		}
	}
	if trace && (rep.tr == nil || len(rep.tr.spans) == 0) {
		t.Error("traced run recorded no spans")
	}
}

var e2eNames = []string{"throughput_per_s", "result_p50_ms", "setup_s", "max_rss_mb"}

func TestSmokeSweep(t *testing.T)         { smoke(t, "sweep", 0.1, false) }
func TestSmokeSweepTraced(t *testing.T)   { smoke(t, "sweep", 0.1, true) }
func TestSmokeWire(t *testing.T)          { smoke(t, "dispatch-wire", 2, false) }
func TestSmokeWireTraced(t *testing.T)    { smoke(t, "dispatch-wire", 4, true) }
func TestSmokeCluster(t *testing.T)       { smoke(t, "dispatch-http-replicated", 4, false) }
func TestSmokeClusterTraced(t *testing.T) { smoke(t, "dispatch-http-replicated", 6, true) }
