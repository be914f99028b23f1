package main

import (
	"fmt"
	"math"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
	"moespark/internal/workload"
)

// runStats is the simulated outcome of one run. Every field is a pure
// function of the run's inputs, so a repeated input reproduces it bit for
// bit, traced or not.
type runStats struct {
	apps, epochs                 int
	jobsPerHour                  float64
	meanSojourn, p95Sojourn      float64
	inputGB, lostGB              float64
	predErrSum                   float64
	predicted                    int
	stp, anttReduction           float64
	oom, preempt, fail, migrated int
}

// jobsOf lists the submissions' jobs in submission order.
func jobsOf(subs []cluster.Submission) []workload.Job {
	jobs := make([]workload.Job, len(subs))
	for i, s := range subs {
		jobs[i] = s.Job
	}
	return jobs
}

// simulate runs one scenario on a fresh cluster and measures its outcome
// with the paper's metrics.
func simulate(sc *scenario, tr *tracer) (runStats, error) {
	start := tr.now()
	var c *cluster.Cluster
	if sc.specs == nil {
		c = cluster.New(sc.cfg)
	} else {
		var err error
		if c, err = cluster.NewHetero(sc.cfg, sc.specs); err != nil {
			return runStats{}, err
		}
	}
	if len(sc.events) > 0 {
		if err := c.ScheduleNodeEvents(sc.events...); err != nil {
			return runStats{}, err
		}
	}
	tr.addNew(start)
	sch := sc.policy(tr)
	start = tr.now()
	var res *cluster.Result
	var err error
	if sc.closed {
		res, err = c.Run(sc.jobs, sch)
	} else {
		res, err = c.RunOpen(sc.subs, sch)
	}
	tr.addRun(start, res)
	if err != nil {
		return runStats{}, err
	}
	if err := checkCompleted(res, sc.subs); err != nil {
		return runStats{}, err
	}
	start = tr.now()
	st, err := measure(c, res, sc.jobs)
	tr.addMeasure(start)
	return st, err
}

// checkCompleted requires every submitted app to have completed, no earlier
// than it was submitted.
func checkCompleted(res *cluster.Result, subs []cluster.Submission) error {
	if len(res.Apps) != len(subs) {
		return fmt.Errorf("%d of %d submitted apps in the result", len(res.Apps), len(subs))
	}
	for _, a := range res.Apps {
		if a.State != cluster.StateDone || a.DoneTime < a.SubmitTime {
			return fmt.Errorf("app %d (%s): state %v, submitted %.3f s, done %.3f s",
				a.ID, a.Job, a.State, a.SubmitTime, a.DoneTime)
		}
	}
	return nil
}

// measure computes the run's queueing metrics, the paper's STP and ANTT
// reduction against the serial isolated baseline, and the error of the
// policy's recorded per-app footprint predictions.
func measure(c *cluster.Cluster, res *cluster.Result, jobs []workload.Job) (runStats, error) {
	q, err := metrics.Queueing(res, 0)
	if err != nil {
		return runStats{}, err
	}
	rm, err := metrics.FromResult(c, res)
	if err != nil {
		return runStats{}, err
	}
	cmp := metrics.Compare(rm, metrics.SerialBaseline(c, jobs))
	st := runStats{
		apps:          len(res.Apps),
		epochs:        res.Epochs,
		jobsPerHour:   q.ThroughputJobsPerHour,
		meanSojourn:   q.MeanSojournSec,
		p95Sojourn:    q.P95SojournSec,
		lostGB:        res.LostWorkGB,
		stp:           cmp.NormalizedSTP,
		anttReduction: cmp.ANTTReductionPct,
		oom:           res.OOMKills,
		preempt:       res.PreemptKills,
		fail:          res.FailKills,
		migrated:      res.Migrations,
	}
	for _, a := range res.Apps {
		st.inputGB += a.Job.InputGB
		if a.PredictedGB <= 0 || a.MaxExecutors <= 0 {
			continue
		}
		actual := a.Job.Bench.Footprint(a.Job.InputGB / float64(a.MaxExecutors))
		st.predErrSum += math.Abs(a.PredictedGB-actual) / actual
		st.predicted++
	}
	return st, nil
}

// simTotals aggregates the simulated outcome of a workload: the mean over
// its runs of each per-run metric, the goodput over all the work processed,
// and the prediction error over every app that carried a prediction.
type simTotals struct {
	runs, predicted        int
	jobsPerHour, mean, p95 float64
	inputGB, lostGB        float64
	predErrSum             float64
	stp, anttReduction     float64
}

func (t *simTotals) add(st runStats) {
	t.runs++
	t.predicted += st.predicted
	t.jobsPerHour += st.jobsPerHour
	t.mean += st.meanSojourn
	t.p95 += st.p95Sojourn
	t.inputGB += st.inputGB
	t.lostGB += st.lostGB
	t.predErrSum += st.predErrSum
	t.stp += st.stp
	t.anttReduction += st.anttReduction
}

func (t *simTotals) metrics() map[string]float64 {
	n := float64(t.runs)
	return map[string]float64{
		"sim_jobs_per_hour":  ratio(t.jobsPerHour, n),
		"sim_mean_sojourn_s": ratio(t.mean, n),
		"sim_p95_sojourn_s":  ratio(t.p95, n),
		"sim_goodput_pct":    100 * ratio(t.inputGB, t.inputGB+t.lostGB),
		"pred_err_pct":       100 * ratio(t.predErrSum, float64(t.predicted)),
		"stp":                ratio(t.stp, n),
		"antt_reduction_pct": ratio(t.anttReduction, n),
	}
}
