package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/moe"
	"moespark/internal/workload"
)

// servingCase is one workload of the serving differential suite: an
// open-system arrival stream scheduled twice — once through the indexed KNN
// gate and once through its linear-scan reference — that must produce
// exactly identical simulations.
type servingCase struct {
	name     string
	nodes    int
	apps     int
	rate     float64
	seed     int64
	adaptive bool
	bursty   bool
	bimodal  bool
	// quantise buckets arrival times onto a coarse grid so several arrivals
	// share one admission event, exercising multi-app admission waves.
	quantise float64
}

// servingCases builds the 25-workload suite: fleets, arrival processes,
// rates, sizes and predictor kinds all vary so the differential covers
// single-arrival waves, coalesced waves, OOM-prone loads and the adaptive
// feedback loop.
func servingCases() []servingCase {
	cases := make([]servingCase, 0, 25)
	for i := 0; i < 25; i++ {
		c := servingCase{
			name:     fmt.Sprintf("w%02d", i),
			nodes:    10 + (i%3)*6,
			apps:     24 + (i%5)*8,
			rate:     0.02 + 0.01*float64(i%4),
			seed:     int64(100 + i),
			adaptive: i%2 == 1,
			bursty:   i%5 == 2,
			bimodal:  i%3 == 0,
		}
		if i%4 == 3 {
			c.quantise = 250
		}
		cases = append(cases, c)
	}
	return cases
}

// servingRun schedules one case and returns the full simulation result. The
// indexed run uses the defaults exactly as production does; the linear run
// pins the gate to its linear-scan reference (SetLinearGate on a private
// model clone).
func servingRun(t *testing.T, w servingCase, model *moe.Model, linear bool) *cluster.Result {
	t.Helper()
	if linear {
		model = model.Clone()
		model.SetLinearGate(true)
	}
	fleetRng := rand.New(rand.NewSource(w.seed))
	var fleet []workload.NodeClass
	var err error
	if w.bimodal {
		fleet, err = workload.BimodalFleet(w.nodes, workload.BigNode(), workload.LittleNode(), 0.5, fleetRng)
	} else {
		fleet, err = workload.UniformFleet(w.nodes, workload.BigNode())
	}
	if err != nil {
		t.Fatal(err)
	}
	arrRng := rand.New(rand.NewSource(w.seed + 1))
	var arrivals []workload.Arrival
	if w.bursty {
		arrivals, err = workload.BurstyArrivals(w.apps, 0.05, 6, 900, arrRng)
	} else {
		arrivals, err = workload.PoissonArrivals(w.apps, w.rate, arrRng)
	}
	if err != nil {
		t.Fatal(err)
	}
	if w.quantise > 0 {
		for i := range arrivals {
			arrivals[i].At = math.Floor(arrivals[i].At/w.quantise) * w.quantise
		}
	}
	rng := rand.New(rand.NewSource(w.seed + 2))
	var d *Dispatcher
	if w.adaptive {
		d = NewAdaptiveMoE(model, moe.AdaptiveConfig{}, rng)
	} else {
		d = NewMoE(model, rng)
	}
	c, err := cluster.NewHetero(cluster.DefaultConfig(), cluster.SpecsFrom(fleet))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunOpen(cluster.Submissions(arrivals), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != w.apps || res.MakespanSec <= 0 {
		t.Fatalf("degenerate run: %d apps (want %d), makespan %v", len(res.Apps), w.apps, res.MakespanSec)
	}
	return res
}

// TestServingDifferential25Workloads pins the indexed KNN gate as exactly
// semantics-preserving: across 25 varied open-system workloads the kd-tree
// and linear-scan runs must agree bit-for-bit (==, not tolerance) on
// makespan, kill counts and every per-app timestamp.
func TestServingDifferential25Workloads(t *testing.T) {
	model := moEModel(t, 5)
	cases := servingCases()
	if len(cases) != 25 {
		t.Fatalf("suite has %d workloads, want 25", len(cases))
	}
	for _, w := range cases {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			on := servingRun(t, w, model, false)
			off := servingRun(t, w, model, true)
			if on.MakespanSec != off.MakespanSec {
				t.Errorf("makespan: kd-tree %v != linear %v", on.MakespanSec, off.MakespanSec)
			}
			if on.OOMKills != off.OOMKills {
				t.Errorf("OOM kills: kd-tree %d != linear %d", on.OOMKills, off.OOMKills)
			}
			if len(on.Apps) != len(off.Apps) {
				t.Fatalf("app count: kd-tree %d != linear %d", len(on.Apps), len(off.Apps))
			}
			for i := range on.Apps {
				a, b := on.Apps[i], off.Apps[i]
				if a.SubmitTime != b.SubmitTime || a.ReadyTime != b.ReadyTime ||
					a.StartTime != b.StartTime || a.DoneTime != b.DoneTime {
					t.Errorf("app %d timestamps diverge: kd-tree {%v %v %v %v} != linear {%v %v %v %v}",
						i, a.SubmitTime, a.ReadyTime, a.StartTime, a.DoneTime,
						b.SubmitTime, b.ReadyTime, b.StartTime, b.DoneTime)
				}
			}
		})
	}
}

// benchmarkAdmission isolates the prediction-serving path the engine runs at
// every admission — feature gating, two-point calibration and the allocation
// plan — with the event loop excluded: apps are pre-admitted, gated one by
// one through Prepare, then planned against a fixed node.
func benchmarkAdmission(b *testing.B, apps int) {
	model, err := moe.TrainDefault(rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	cat := workload.Catalog()
	jobRng := rand.New(rand.NewSource(11))
	jobs := make([]workload.Job, apps)
	for i := range jobs {
		jobs[i] = workload.Job{Bench: cat[jobRng.Intn(len(cat))], InputGB: 5 + jobRng.Float64()*120}
	}
	cfg := cluster.DefaultConfig()
	node := cluster.New(cfg).Nodes()[0]
	free := node.FreeGB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cluster.New(cfg)
		admitted := make([]*cluster.App, apps)
		for j, job := range jobs {
			admitted[j] = c.AddReadyApp(job)
		}
		d := NewMoE(model, rand.New(rand.NewSource(7)))
		b.StartTimer()
		for _, app := range admitted {
			d.Prepare(c, app)
		}
		for _, app := range admitted {
			est, ok := d.Est.Estimate(app)
			d.plan(cfg, app, node, free, est, ok)
		}
	}
}

func BenchmarkSchedulerAdmission10k(b *testing.B)  { benchmarkAdmission(b, 10_000) }
func BenchmarkSchedulerAdmission100k(b *testing.B) { benchmarkAdmission(b, 100_000) }

// moeScaleRun is the end-to-end open-system serving benchmark: a 64-node
// bimodal fleet absorbing a Poisson arrival stream under the MoE scheme,
// whole engine included. linear pins the gate to its linear-scan reference,
// isolating the indexed gate's contribution.
func moeScaleRun(b *testing.B, apps int, linear bool) {
	b.Helper()
	const nodes = 64
	fleet, err := workload.BimodalFleet(nodes, workload.BigNode(), workload.LittleNode(), 0.5, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	specs := cluster.SpecsFrom(fleet)
	arrivals, err := workload.PoissonArrivals(apps, 0.018, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	subs := cluster.Submissions(arrivals)
	model, err := moe.TrainDefault(rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	if linear {
		model.SetLinearGate(true)
	}
	cfg := cluster.DefaultConfig()
	cfg.FleetAwareSizing = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cluster.NewHetero(cfg, specs)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.RunOpen(subs, NewMoE(model, rand.New(rand.NewSource(7))))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Apps) != apps {
			b.Fatalf("%d apps completed, want %d", len(res.Apps), apps)
		}
	}
}

func BenchmarkOpenSystemMoE10k(b *testing.B)            { moeScaleRun(b, 10_000, false) }
func BenchmarkOpenSystemMoE100k(b *testing.B)           { moeScaleRun(b, 100_000, false) }
func BenchmarkOpenSystemMoE100kLinearGate(b *testing.B) { moeScaleRun(b, 100_000, true) }
