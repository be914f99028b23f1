package main

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/moe"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// modelSeed trains the MoE model every workload schedules with, fleetSeed
// draws moe-stream's big/little fleet and burstSeed burst-churn's burst
// timelines. They are fixed: the model and the fleets are the system under
// test, and a fleet's big-node count or a timeline's largest bursts would
// otherwise move host cost between seeds by more than the bounds allow.
// --seed drives everything else: the jobs, the other workloads' arrival times,
// tenant classes, storms, mixes and the schedulers' profiling noise.
const (
	modelSeed = 2017
	fleetSeed = 2
	burstSeed = 40
)

// A scenario is one pre-generated input that one simulated run consumes end
// to end on a fresh cluster.
type scenario struct {
	cfg    cluster.Config
	specs  []cluster.NodeSpec // nil: cluster.New(cfg), the paper's testbed
	events []cluster.NodeEvent
	subs   []cluster.Submission
	jobs   []workload.Job // subs' jobs, in submission order
	closed bool           // submit through Run (all at t=0) instead of RunOpen
	// policy builds the run's scheduler; a non-nil tracer wraps its layers.
	policy func(tr *tracer) cluster.Scheduler
}

// A suite is one workload's set-up product: the operations the benchmark
// cycles through, each a list of scenarios run back to back.
type suite struct {
	ops [][]scenario
	// model is replayed against the recorded predict requests; nil when the
	// workload bypasses the moe layer.
	model *moe.Model
	// staticGate marks a model that nothing mutates during a run, so every
	// replayed gate decision must equal the in-run one.
	staticGate bool
}

// workloadDef names a workload and builds its suite from a seed.
type workloadDef struct {
	name  string
	setup func(seed int64) (*suite, error)
}

var workloads = []workloadDef{
	{"moe-stream", setupMoEStream},
	{"burst-churn", setupBurstChurn},
	{"coloc-dense", setupColocDense},
	{"paper-mixes", setupPaperMixes},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// Workload sizes: each operation takes a tenth to half a second of host
// time on a 2-vCPU host, and a pass over a workload's inputs a few seconds,
// so that a run repeats every input several times.
const (
	moeStreamOps    = 3
	moeStreamApps   = 20000 // apps per moe-stream operation
	burstChurnOps   = 8
	burstChurnApps  = 4000
	colocDenseOps   = 8
	colocDenseApps  = 3000
	paperMixOps     = 4
	paperMixesPerOp = 40 // mixes per scenario label per operation
)

// The regime-switch drift shape of the program's drift study: every 10 jobs
// the mix flips between the clean catalogue and the skewed cohort.
const (
	regimePeriod = 10
	regimeSkew   = -0.35
)

// subSeed derives the seed of one generated input from the workload seed.
func subSeed(seed int64, op, part int) int64 {
	return seed*1_000_003 + int64(op)*7919 + int64(part)*104_729
}

func trainModel() (*moe.Model, error) {
	return moe.TrainDefault(rand.New(rand.NewSource(modelSeed)))
}

// staticMoE is the paper's scheme, sched.NewMoE, spelled out through the
// public predictor constructor so that a tracer can wrap the predictor.
// Traced and untraced runs build the scheduler the same way.
func staticMoE(model *moe.Model, rngSeed int64, tr *tracer) cluster.Scheduler {
	var p moe.Predictor = moe.NewStatic(model)
	if tr != nil {
		p = tr.tracePredictor(p)
	}
	d := sched.NewMoEPredictor(p, rand.New(rand.NewSource(rngSeed)))
	d.PolicyName = "MoE"
	if tr == nil {
		return d
	}
	return tr.traceScheduler(d, false)
}

// setupMoEStream: the static MoE scheme on a 64-node bimodal Big/Little fleet
// with Poisson arrivals at 0.018/s under the shipped DefaultConfig.
func setupMoEStream(seed int64) (*suite, error) {
	model, err := trainModel()
	if err != nil {
		return nil, err
	}
	fleet, err := workload.BimodalFleet(64, workload.BigNode(), workload.LittleNode(), 0.5,
		rand.New(rand.NewSource(fleetSeed)))
	if err != nil {
		return nil, err
	}
	specs := cluster.SpecsFrom(fleet)
	s := &suite{model: model, staticGate: true}
	for op := 0; op < moeStreamOps; op++ {
		arrivals, err := workload.PoissonArrivals(moeStreamApps, 0.018, rand.New(rand.NewSource(subSeed(seed, op, 1))))
		if err != nil {
			return nil, err
		}
		rngSeed := subSeed(seed, op, 2)
		subs := cluster.Submissions(arrivals)
		s.ops = append(s.ops, []scenario{{
			cfg:   cluster.DefaultConfig(),
			specs: specs,
			subs:  subs,
			jobs:  jobsOf(subs),
			policy: func(tr *tracer) cluster.Scheduler {
				return staticMoE(model, rngSeed, tr)
			},
		}})
	}
	return s, nil
}

// setupBurstChurn: adaptive MoE behind preemptive priority scheduling with
// the class-aware rack-spread placer, on the racked 40-node paper fleet under
// a rack storm with drain migration. Regime-switching jobs tagged with a
// latency/batch mix arrive in bursts of about 40 at 1/s, with 1200 s mean
// idle time between bursts.
func setupBurstChurn(seed int64) (*suite, error) {
	model, err := trainModel()
	if err != nil {
		return nil, err
	}
	fleet, err := workload.UniformFleet(40, workload.PaperNode())
	if err != nil {
		return nil, err
	}
	racked, err := workload.AssignRacks(fleet, 8, 2)
	if err != nil {
		return nil, err
	}
	specs := cluster.SpecsFrom(racked)
	cfg := cluster.DefaultConfig()
	cfg.MigrateOnDrain = true
	s := &suite{model: model}
	for op := 0; op < burstChurnOps; op++ {
		rng := rand.New(rand.NewSource(subSeed(seed, op, 0)))
		// The regime stream's own Poisson times are replaced by burst times.
		arrivals, err := workload.RegimeArrivals(burstChurnApps, 1, regimePeriod, regimeSkew, rng)
		if err != nil {
			return nil, err
		}
		bursts, err := workload.BurstyArrivals(burstChurnApps, 1, 40, 1200, rand.New(rand.NewSource(burstSeed+int64(op))))
		if err != nil {
			return nil, err
		}
		for i := range arrivals {
			arrivals[i].At = bursts[i].At
		}
		tagged, err := workload.TagArrivals(arrivals, workload.LatencyBatchMix(0.3), rng)
		if err != nil {
			return nil, err
		}
		span := tagged[len(tagged)-1].At
		storm, err := cluster.RackStormEvents(specs, 1, 2, span*0.1, span*0.8, 60, 180, rng)
		if err != nil {
			return nil, err
		}
		rngSeed := subSeed(seed, op, 1)
		subs := cluster.Submissions(tagged)
		s.ops = append(s.ops, []scenario{{
			cfg:    cfg,
			specs:  specs,
			events: storm,
			subs:   subs,
			jobs:   jobsOf(subs),
			policy: func(tr *tracer) cluster.Scheduler {
				var p moe.Predictor = moe.NewAdaptive(model.Clone(), moe.AdaptiveConfig{})
				if tr != nil {
					p = tr.tracePredictor(p)
				}
				d := sched.NewMoEPredictor(p, rand.New(rand.NewSource(rngSeed)))
				d.Placer = sched.NewRackSpread()
				sch := sched.NewPriority(d, true)
				if tr != nil {
					sch = tr.traceScheduler(sch, false)
				}
				return sch
			},
		}})
	}
	return s, nil
}

// setupColocDense: the benchmark's packing policy on 96 BigNodes, with
// executor fleets sized at 3 GB chunks up to the whole fleet, 450-530 GB
// inputs and Poisson arrivals at 0.06/s. Neither sched nor moe runs.
func setupColocDense(seed int64) (*suite, error) {
	fleet, err := workload.UniformFleet(96, workload.BigNode())
	if err != nil {
		return nil, err
	}
	specs := cluster.SpecsFrom(fleet)
	cfg := cluster.DefaultConfig()
	cfg.ExecutorSpreadGB = 3
	cfg.MaxExecutorNodes = 96
	s := &suite{}
	for op := 0; op < colocDenseOps; op++ {
		arrivals, err := workload.PoissonArrivals(colocDenseApps, 0.06, rand.New(rand.NewSource(subSeed(seed, op, 0))))
		if err != nil {
			return nil, err
		}
		for i := range arrivals {
			arrivals[i].Job.InputGB = 450 + 20*float64(i%5)
		}
		subs := cluster.Submissions(arrivals)
		s.ops = append(s.ops, []scenario{{
			cfg:   cfg,
			specs: specs,
			subs:  subs,
			jobs:  jobsOf(subs),
			policy: func(tr *tracer) cluster.Scheduler {
				var p cluster.Scheduler = &packer{}
				if tr != nil {
					p = tr.traceScheduler(p, true)
				}
				return p
			},
		}})
	}
	return s, nil
}

// setupPaperMixes: the paper's closed-batch Table 3 scenarios L1-L10, each
// drawn as random mixes and run under MoE on the paper's 40-node testbed.
func setupPaperMixes(seed int64) (*suite, error) {
	model, err := trainModel()
	if err != nil {
		return nil, err
	}
	s := &suite{model: model, staticGate: true}
	for op := 0; op < paperMixOps; op++ {
		rng := rand.New(rand.NewSource(subSeed(seed, op, 0)))
		var scs []scenario
		for i := 0; i < paperMixesPerOp; i++ {
			for _, sc := range workload.Scenarios {
				jobs := workload.RandomMix(sc, rng)
				subs := make([]cluster.Submission, len(jobs))
				for j, job := range jobs {
					subs[j] = cluster.Submission{Job: job}
				}
				rngSeed := rng.Int63()
				scs = append(scs, scenario{
					cfg:    cluster.DefaultConfig(),
					subs:   subs,
					jobs:   jobs,
					closed: true,
					policy: func(tr *tracer) cluster.Scheduler {
						return staticMoE(model, rngSeed, tr)
					},
				})
			}
		}
		s.ops = append(s.ops, scs)
	}
	return s, nil
}
