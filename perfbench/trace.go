package main

import (
	"math"
	"slices"
	"time"

	"moespark/internal/cluster"
	"moespark/internal/features"
	"moespark/internal/memfunc"
	"moespark/internal/moe"
)

// The optional faces the engine and the MoE estimator probe for with type
// assertions. They are declared here rather than taken from the program so
// the benchmark keeps compiling if the program drops its own declarations.
type (
	batchScheduler interface {
		PrepareBatch(c *cluster.Cluster, apps []*cluster.App) []cluster.ProfilePlan
	}
	observer interface {
		Observe(c *cluster.Cluster, e *cluster.Executor, outcome cluster.ExecOutcome)
	}
	batchPredictor interface {
		PredictBatch(reqs []moe.PredictRequest) []moe.BatchResult
	}
)

// callbacks accumulates the time one scheduler spends inside the engine's
// callbacks. inclusiveNS also covers the wrapper's own sampling, so that the
// engine's self time is free of tracing cost.
type callbacks struct {
	prepareNS, prepareApps int64
	scheduleNS, schedCalls int64
	observeNS              int64
	waitingSeen, placed    int64
	inclusiveNS            int64
}

// tracer records spans and counts at the public layer boundaries: the
// cluster.Scheduler callbacks, the moe.Predictor behind the MoE estimator,
// and the cluster construction, run and metrics calls of each operation.
// Nothing inside the program is instrumented. A nil *tracer records nothing,
// which is how untraced operations run.
type tracer struct {
	ops int

	newNS, runNS, measureNS int64
	epochs                  int64
	oom, preempt, fail, mig int64
	execSum                 float64
	execSamples             int64

	sched, bench callbacks // sched package; the benchmark's own policy

	predictNS, predictReqs   int64
	confident, fellBack      int64
	moeObserveNS, moeObserve int64
	repeats                  int64
	gateNS, calibrateNS      int64
	replayed                 int64
	familyMismatches         int

	// Per-operation scratch: reqs is sized before the operation is timed.
	reqs    []recorded
	waitBuf []*cluster.App
	execBuf []int
}

// recorded is one answered predict request.
type recorded struct {
	req    moe.PredictRequest
	key    uint64 // fixed-size hash of req
	family memfunc.Family
	failed bool
}

// reserve empties the request record and sizes it for apps requests, so
// that recording never allocates while the operation is timed.
func (t *tracer) reserve(apps int) {
	t.reqs = slices.Grow(t.reqs[:0], apps)
}

func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) addNew(since time.Time) {
	if t != nil {
		t.newNS += int64(time.Since(since))
	}
}

func (t *tracer) addMeasure(since time.Time) {
	if t != nil {
		t.measureNS += int64(time.Since(since))
	}
}

func (t *tracer) addRun(since time.Time, res *cluster.Result) {
	if t == nil {
		return
	}
	t.runNS += int64(time.Since(since))
	if res != nil {
		t.epochs += int64(res.Epochs)
		t.oom += int64(res.OOMKills)
		t.preempt += int64(res.PreemptKills)
		t.fail += int64(res.FailKills)
		t.mig += int64(res.Migrations)
	}
}

func (t *tracer) record(req moe.PredictRequest, pred moe.Prediction, err error) {
	t.reqs = append(t.reqs, recorded{req: req, key: requestKey(req), family: pred.Selection.Family, failed: err != nil})
	if err == nil && pred.Confident {
		t.confident++
	}
	if err == nil && pred.FellBack {
		t.fellBack++
	}
}

// finishOp closes one traced operation: it counts repeated requests and
// replays the recorded requests through the model's public gate and the
// calibration, timing each stage on its own. When checkFamily is set, each
// replayed family must equal the family the in-run prediction chose.
func (t *tracer) finishOp(model *moe.Model, checkFamily bool) {
	t.ops++
	n := len(t.reqs)
	seen := make(map[uint64]bool, n)
	for _, r := range t.reqs {
		if seen[r.key] {
			t.repeats++
		}
		seen[r.key] = true
	}
	if model == nil || n == 0 {
		return
	}
	sel := make([]memfunc.Family, n)
	ok := make([]bool, n)
	start := time.Now()
	for i := range t.reqs {
		s, err := model.SelectFamily(t.reqs[i].req.Raw)
		sel[i], ok[i] = s.Family, err == nil
	}
	t.gateNS += int64(time.Since(start))
	start = time.Now()
	for i := range t.reqs {
		if r := &t.reqs[i].req; ok[i] {
			_, err := memfunc.CalibrateWithFallback(sel[i], r.P1, r.P2)
			ok[i] = err == nil
		}
	}
	t.calibrateNS += int64(time.Since(start))
	t.replayed += int64(n)
	if checkFamily {
		for i, r := range t.reqs {
			if !r.failed && sel[i] != r.family {
				t.familyMismatches++
			}
		}
	}
}

// requestKey hashes a predict request's 26 float64 words with a
// multiply-xorshift mix.
func requestKey(r moe.PredictRequest) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(v float64) {
		h ^= math.Float64bits(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	for _, v := range r.Raw {
		mix(v)
	}
	mix(r.P1.X)
	mix(r.P1.Y)
	mix(r.P2.X)
	mix(r.P2.Y)
	return h
}

// traceScheduler wraps s so that every engine callback is timed. The wrapper
// has PrepareBatch and Observe exactly when s has them, so the engine takes
// the same path with and without tracing. benchPolicy attributes the callbacks
// to benchmark code instead of the sched package.
func (t *tracer) traceScheduler(s cluster.Scheduler, benchPolicy bool) cluster.Scheduler {
	w := &tracedScheduler{inner: s, tr: t, cb: &t.sched, sampled: !benchPolicy}
	if benchPolicy {
		w.cb = &t.bench
	}
	var batch, obs bool
	w.batch, batch = s.(batchScheduler)
	w.obs, obs = s.(observer)
	switch {
	case batch && obs:
		return tracedBatchObserving{w}
	case batch:
		return tracedBatch{w}
	case obs:
		return tracedObserving{w}
	}
	return w
}

type tracedScheduler struct {
	inner   cluster.Scheduler
	batch   batchScheduler // inner's optional faces, nil when absent
	obs     observer
	tr      *tracer
	cb      *callbacks
	sampled bool // sample the waiting queue around Schedule
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Prepare(c *cluster.Cluster, app *cluster.App) cluster.ProfilePlan {
	start := time.Now()
	plan := s.inner.Prepare(c, app)
	d := int64(time.Since(start))
	s.cb.prepareNS += d
	s.cb.inclusiveNS += d
	s.cb.prepareApps++
	return plan
}

func (s *tracedScheduler) Schedule(c *cluster.Cluster) {
	entry := time.Now()
	t := s.tr
	nodes := c.Nodes()
	var execs int
	for _, n := range nodes {
		execs += len(n.Executors)
	}
	t.execSum += float64(execs) / float64(len(nodes))
	t.execSamples++
	if s.sampled {
		t.waitBuf = c.AppendWaitingApps(t.waitBuf[:0])
		t.execBuf = t.execBuf[:0]
		for _, a := range t.waitBuf {
			t.execBuf = append(t.execBuf, len(a.Executors))
		}
	}
	start := time.Now()
	s.inner.Schedule(c)
	s.cb.scheduleNS += int64(time.Since(start))
	s.cb.schedCalls++
	if s.sampled {
		s.cb.waitingSeen += int64(len(t.waitBuf))
		for i, a := range t.waitBuf {
			if len(a.Executors) > t.execBuf[i] {
				s.cb.placed++
			}
		}
	}
	s.cb.inclusiveNS += int64(time.Since(entry))
}

func (s *tracedScheduler) prepareBatch(c *cluster.Cluster, apps []*cluster.App) []cluster.ProfilePlan {
	start := time.Now()
	plans := s.batch.PrepareBatch(c, apps)
	d := int64(time.Since(start))
	s.cb.prepareNS += d
	s.cb.inclusiveNS += d
	s.cb.prepareApps += int64(len(apps))
	return plans
}

func (s *tracedScheduler) observe(c *cluster.Cluster, e *cluster.Executor, outcome cluster.ExecOutcome) {
	start := time.Now()
	s.obs.Observe(c, e, outcome)
	d := int64(time.Since(start))
	s.cb.observeNS += d
	s.cb.inclusiveNS += d
}

type tracedBatch struct{ *tracedScheduler }

func (s tracedBatch) PrepareBatch(c *cluster.Cluster, apps []*cluster.App) []cluster.ProfilePlan {
	return s.prepareBatch(c, apps)
}

type tracedObserving struct{ *tracedScheduler }

func (s tracedObserving) Observe(c *cluster.Cluster, e *cluster.Executor, outcome cluster.ExecOutcome) {
	s.observe(c, e, outcome)
}

type tracedBatchObserving struct{ *tracedScheduler }

func (s tracedBatchObserving) PrepareBatch(c *cluster.Cluster, apps []*cluster.App) []cluster.ProfilePlan {
	return s.prepareBatch(c, apps)
}

func (s tracedBatchObserving) Observe(c *cluster.Cluster, e *cluster.Executor, outcome cluster.ExecOutcome) {
	s.observe(c, e, outcome)
}

// tracePredictor wraps p so that every prediction and observation is timed
// and every request recorded. The wrapper has PredictBatch exactly when p
// has it, so the estimator takes the same path with and without tracing.
func (t *tracer) tracePredictor(p moe.Predictor) moe.Predictor {
	w := &tracedPredictor{inner: p, tr: t}
	if b, ok := p.(batchPredictor); ok {
		return tracedBatchPredictor{w, b}
	}
	return w
}

type tracedPredictor struct {
	inner moe.Predictor
	tr    *tracer
}

func (p *tracedPredictor) Name() string { return p.inner.Name() }

func (p *tracedPredictor) Predict(raw features.Vector, p1, p2 memfunc.Point) (moe.Prediction, error) {
	start := time.Now()
	pred, err := p.inner.Predict(raw, p1, p2)
	p.tr.predictNS += int64(time.Since(start))
	p.tr.predictReqs++
	p.tr.record(moe.PredictRequest{Raw: raw, P1: p1, P2: p2}, pred, err)
	return pred, err
}

func (p *tracedPredictor) Observe(obs moe.Observation) {
	start := time.Now()
	p.inner.Observe(obs)
	p.tr.moeObserveNS += int64(time.Since(start))
	p.tr.moeObserve++
}

type tracedBatchPredictor struct {
	*tracedPredictor
	batch batchPredictor
}

func (p tracedBatchPredictor) PredictBatch(reqs []moe.PredictRequest) []moe.BatchResult {
	start := time.Now()
	out := p.batch.PredictBatch(reqs)
	p.tr.predictNS += int64(time.Since(start))
	p.tr.predictReqs += int64(len(reqs))
	for i, r := range reqs {
		p.tr.record(r, out[i].Prediction, out[i].Err)
	}
	return out
}
