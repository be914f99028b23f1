package cluster

import (
	"testing"
	"unsafe"

	"moespark/internal/workload"
)

// TestGrowRefreshesCacheEff spawns an executor below its fair share, so its
// cached cache-efficiency factor is under 1, then grows it across the fair
// share. The rate pass reads the cached factor, so a Grow that forgot to
// refresh it would leave the old penalty in place: refCheckRates, which
// evaluates math.Pow from ItemsGB/FairShareGB afresh, must agree, and the
// rate must rise.
func TestGrowRefreshesCacheEff(t *testing.T) {
	c := New(DefaultConfig())
	app := &App{
		ID: 0, Job: workload.Job{Bench: testBench(t, "SP.Pca"), InputGB: 20},
		RemainingGB: 20, MaxExecutors: 2, State: StateReady,
		ReadyTime: 0, StartTime: -1, DoneTime: -1,
	}
	e, err := c.Spawn(app, c.Nodes()[0], 30, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.FairShareGB != 10 {
		t.Fatalf("fair share %v, want 10", e.FairShareGB)
	}
	c.now = c.cfg.StartupSec + 1 // past the startup gate
	c.recomputeRates()
	if diff := c.refCheckRates(); diff != "" {
		t.Fatalf("after spawn: %s", diff)
	}
	before := e.Rate()
	if before <= 0 {
		t.Fatalf("rate after startup %v, want > 0", before)
	}
	if err := c.Grow(e, 30, 10); err != nil {
		t.Fatal(err)
	}
	if e.NeedGB > e.ReservedGB {
		t.Fatalf("need %v exceeds reservation %v: the heap penalty would mask the cache factor", e.NeedGB, e.ReservedGB)
	}
	c.recomputeRates()
	if diff := c.refCheckRates(); diff != "" {
		t.Fatalf("after grow: %s", diff)
	}
	if e.Rate() <= before {
		t.Errorf("rate %v after growing to the fair share, want above %v", e.Rate(), before)
	}
}

// TestExecutorSizeClass pins Executor in the 112-byte allocation size class.
// One more float64 field moves it to the 128-byte class; measured on the
// coloc-dense benchmark workload, that raised alloc_mb by 10.8%, past the
// benchmark's 10% bound.
func TestExecutorSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Executor{}); got > 112 {
		t.Errorf("Executor is %d bytes, want <= 112", got)
	}
}
