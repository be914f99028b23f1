package cluster

import (
	"testing"

	"moespark/internal/workload"
)

// Direct accounting: a completed foreign task's working set leaves both
// memory sums.
func TestForeignCompletionFreesWorkingSet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := New(cfg)
	f, err := c.AddForeign(0, "hog", 0.3, 40, 50)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes()[0]
	if n.ActualGB() != 40 || n.ReservedGB() != 40 {
		t.Fatalf("running foreign task must be resident (actual %v reserved %v)", n.ActualGB(), n.ReservedGB())
	}
	// Complete the task through the engine's release path: rate it alone on
	// the node, jump the clock to its finish and let completeForeign settle
	// it and rebuild the node's sums.
	c.recomputeRates()
	c.now = f.settledAt + f.remaining/f.rate
	c.completeForeign(f)
	if !f.Done() {
		t.Fatal("foreign task did not complete")
	}
	if n.ActualGB() != 0 || n.ReservedGB() != 0 || n.CPUDemand() != 0 {
		t.Errorf("after completion actual %v reserved %v cpu %v, want 0", n.ActualGB(), n.ReservedGB(), n.CPUDemand())
	}
}

// pinScheduler spawns every waiting app once on node 0 with a fixed
// reservation, so the paging arithmetic of the regression test below is
// fully controlled.
type pinScheduler struct {
	reserveGB float64
}

func (pinScheduler) Name() string                       { return "test-pin" }
func (pinScheduler) Prepare(*Cluster, *App) ProfilePlan { return ProfilePlan{} }
func (s pinScheduler) Schedule(c *Cluster) {
	for _, app := range c.WaitingApps() {
		if len(app.Executors) == 0 {
			_, _ = c.Spawn(app, c.Nodes()[0], s.reserveGB, app.RemainingGB)
		}
	}
}

// Regression: a big co-runner pushes the node over the pressure watermark;
// once it completes, the node un-pages and the surviving executor speeds up.
// The control run keeps the same hog alive past the app's completion, so its
// node stays paging-penalized for the whole run. The hog demands no CPU, so
// its memory is the only thing that differs between the two runs.
func TestForeignCompletionUnpagesNode(t *testing.T) {
	b, err := workload.Find("BDB.PageRank") // log family: footprint >> reservation
	if err != nil {
		t.Fatal(err)
	}
	run := func(hogSec float64) (appDone float64, trailingActual float64) {
		cfg := DefaultConfig()
		cfg.Nodes = 1
		c := New(cfg)
		// 45 GB working set + the executor's ~11.5 GB residency exceeds the
		// 55.2 GB watermark, so the node pages while the hog lives.
		if _, err := c.AddForeign(0, "hog", 0, 45, hogSec); err != nil {
			t.Fatal(err)
		}
		res, err := c.RunOpen([]Submission{{At: 0, Job: workload.Job{Bench: b, InputGB: 16}}},
			pinScheduler{reserveGB: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res.Apps[0].DoneTime, c.Nodes()[0].ActualGB()
	}
	relDone, relActual := run(200)
	keepDone, keepActual := run(1e6)
	if relActual != 0 {
		t.Errorf("completed hog must free its set, ActualGB = %v", relActual)
	}
	if keepActual != 0 {
		t.Errorf("control hog must be gone by the end of the run, ActualGB = %v", keepActual)
	}
	// A clear margin, not just "<": the two runs differ only from the hog's
	// completion on, so a missing release would still leave an ulp apart.
	if relDone >= 0.9*keepDone {
		t.Errorf("un-paged node must finish the app clearly sooner: hog done at 200 s %v s vs hog outliving the app %v s", relDone, keepDone)
	}
}

// The fleet-aware sizing must read the specs of nodes actually free at
// admission: a little-node fleet needs far more executors than the
// reference formula assumes, a big-node fleet fewer, and unavailable nodes
// don't count. Clearing the flag keeps the reference formula everywhere.
func TestFleetAwareSizing(t *testing.T) {
	b, err := workload.Find("SP.Gmm")
	if err != nil {
		t.Fatal(err)
	}
	job := workload.Job{Bench: b, InputGB: 64}
	mkCluster := func(spec NodeSpec, nodes int, aware bool) *Cluster {
		cfg := DefaultConfig()
		cfg.FleetAwareSizing = aware
		specs := make([]NodeSpec, nodes)
		for i := range specs {
			specs[i] = spec
		}
		c, err := NewHetero(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	little := NodeSpec{RAMGB: 16, Cores: 8, SpeedFactor: 1, SwapGB: 8, OSReserveGB: 4}
	big := NodeSpec{RAMGB: 128, Cores: 32, SpeedFactor: 1.2, SwapGB: 16, OSReserveGB: 4}

	// Reference formula, regardless of fleet: ceil(64/16) = 4 executors.
	if got := mkCluster(little, 24, false).AddReadyApp(job).MaxExecutors; got != 4 {
		t.Errorf("reference sizing on little fleet: %d executors, want 4", got)
	}
	// Aware sizing on little nodes: each contributes 16 GB scaled by
	// 11.04/55.2 allocatable = 3.2 GB, so 64 GB needs 20 of them.
	if got := mkCluster(little, 24, true).AddReadyApp(job).MaxExecutors; got != 20 {
		t.Errorf("aware sizing on little fleet: %d executors, want 20", got)
	}
	// Aware sizing on big nodes: each contributes 16 * 114.08/55.2 ≈ 33 GB,
	// so 2 executors cover 64 GB (the reference formula would start 4).
	if got := mkCluster(big, 24, true).AddReadyApp(job).MaxExecutors; got != 2 {
		t.Errorf("aware sizing on big fleet: %d executors, want 2", got)
	}
	// Unavailable nodes are not free at admission: with only 10 little
	// nodes placeable, the fleet caps there.
	c := mkCluster(little, 24, true)
	for i, n := range c.Nodes() {
		if i >= 10 {
			n.state = NodeDraining
		}
	}
	if got := c.AddReadyApp(job).MaxExecutors; got != 10 {
		t.Errorf("aware sizing with 10 free nodes: %d executors, want 10", got)
	}
}
