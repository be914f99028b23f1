// Command perfbench is the simulator's benchmark. It runs one named workload
// through the public API of the cluster, sched, moe, workload and metrics
// packages for a fixed stretch of host time, checks every run, and prints
// its metrics as one JSON object on the last line of standard output:
//
//	perfbench --workload moe-stream --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: host throughput, set-up
// time, memory and the simulated outcome. With --trace 1 it interleaves
// untraced runs with runs whose layer boundaries are wrapped from outside,
// and reports the per-layer metrics. BENCHMARK.json at the repository root
// lists every metric with its unit and direction.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: moe-stream, burst-churn, coloc-dense or paper-mixes")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced runs, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	s, setupS, err := setUp(w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	m := measureSuite(s, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	var out map[string]metric
	if *trace == 1 {
		out = m.layerMetrics()
	} else {
		out = m.endToEndMetrics(setupS)
	}
	return report(stdout, m, out)
}

// setUpReps is how often the set-up is repeated to time it.
const setUpReps = 21

// setUp builds the workload's suite setUpReps times, each after a full
// garbage collection outside its timing so that no earlier repetition's
// garbage is collected on its clock, and returns the last suite with the
// median set-up CPU time.
func setUp(w workloadDef, seed int64) (*suite, float64, error) {
	var s *suite
	times := make([]float64, setUpReps)
	for i := range times {
		s = nil // every repetition starts with the same live heap
		runtime.GC()
		start := cpuSeconds()
		var err error
		if s, err = w.setup(seed); err != nil {
			return nil, 0, err
		}
		times[i] = cpuSeconds() - start
	}
	return s, median(times), nil
}

// opSample is the host cost of one operation on input k of the suite, in
// CPU seconds of the process.
type opSample struct {
	k            int
	sec          float64
	apps, epochs int
}

// measurement is everything one benchmark invocation observed.
type measurement struct {
	attempted, failed int
	mismatches        int // operations whose simulated outcome differed from the first run of the same input
	untraced, traced  []opSample
	refSecs           []float64 // the reference operation's CPU time before each operation
	allocPerOp        float64
	sim               simTotals
	tr                *tracer
}

func (m *measurement) correct() bool {
	return m.failed == 0 && m.mismatches == 0 && (m.tr == nil || m.tr.familyMismatches == 0)
}

// measureSuite runs the suite's operations round-robin for at least one full
// pass and until d has passed. Every run is checked: its apps must all
// complete, and each operation must reproduce the simulated outcome of the
// first run of the same input exactly. In traced mode each input is run
// once untraced and once traced, in an order that alternates between passes.
func measureSuite(s *suite, d time.Duration, traced bool, stderr io.Writer) *measurement {
	m := &measurement{}
	if traced {
		m.tr = &tracer{}
	}
	refs := make([][]runStats, len(s.ops))
	scratch := make([][]runStats, len(s.ops))
	for k, op := range s.ops {
		scratch[k] = make([]runStats, len(op))
	}
	logged := false
	ref := newReference()
	runOp := func(k int, tr *tracer) opSample {
		m.refSecs = append(m.refSecs, ref.seconds())
		op, out := s.ops[k], scratch[k]
		sample := opSample{k: k}
		for i := range op {
			sample.apps += len(op[i].subs)
		}
		if tr != nil {
			tr.reserve(sample.apps)
		}
		start := cpuSeconds()
		for i := range op {
			st, err := simulate(&op[i], tr)
			if err != nil {
				m.failed += len(op[i].subs)
				if !logged {
					fmt.Fprintf(stderr, "perfbench: run %d of operation %d: %v\n", i, k, err)
					logged = true
				}
			}
			out[i] = st
			sample.epochs += st.epochs
		}
		sample.sec = cpuSeconds() - start
		if tr != nil {
			tr.finishOp(s.model, s.staticGate)
		}
		m.attempted += sample.apps
		switch {
		case refs[k] == nil:
			refs[k] = slices.Clone(out)
			for _, st := range out {
				m.sim.add(st)
			}
		case !slices.Equal(refs[k], out):
			m.mismatches++
		}
		return sample
	}

	// Warm-up: let lazily built state, caches and the reference
	// operation's buffers settle before timing.
	runOp(0, nil)
	m.refSecs = m.refSecs[:0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for i := 0; i < len(s.ops) || time.Since(begin) < d; i++ {
		k := i % len(s.ops)
		if !traced {
			m.untraced = append(m.untraced, runOp(k, nil))
			continue
		}
		if (i/len(s.ops))%2 == 0 {
			m.untraced = append(m.untraced, runOp(k, nil))
			m.traced = append(m.traced, runOp(k, m.tr))
		} else {
			m.traced = append(m.traced, runOp(k, m.tr))
			m.untraced = append(m.untraced, runOp(k, nil))
		}
	}
	runtime.ReadMemStats(&after)
	m.allocPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(m.untraced)+len(m.traced))
	if m.mismatches > 0 {
		fmt.Fprintf(stderr, "perfbench: %d operations did not reproduce their input's first outcome\n", m.mismatches)
	}
	if m.tr != nil && m.tr.familyMismatches > 0 {
		fmt.Fprintf(stderr, "perfbench: %d replayed gate decisions differ from the in-run ones\n", m.tr.familyMismatches)
	}
	return m
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostCost sums over the suite's inputs each input's apps and epochs and the
// median host time of its operations. The median discards operations slowed
// by the host; the sum weighs every input once.
func hostCost(samples []opSample) (apps, epochs, sec float64) {
	byInput := map[int][]float64{}
	for _, s := range samples {
		if len(byInput[s.k]) == 0 {
			apps += float64(s.apps)
			epochs += float64(s.epochs)
		}
		byInput[s.k] = append(byInput[s.k], s.sec)
	}
	for _, secs := range byInput {
		sec += median(secs)
	}
	return apps, epochs, sec
}

func appsPerSec(samples []opSample) float64 {
	apps, _, sec := hostCost(samples)
	return ratio(apps, sec)
}

// ratio is a/b, or 0 when b is 0, such as when every run failed.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostScale converts the host times of this invocation to a host on which
// the reference operation takes refNominalSec.
func (m *measurement) hostScale() float64 {
	return refNominalSec / median(m.refSecs)
}

func (m *measurement) endToEndMetrics(setupS float64) map[string]metric {
	apps, epochs, sec := hostCost(m.untraced)
	sec *= m.hostScale()
	out := map[string]metric{
		"apps_per_s":        {ratio(apps, sec), "1/s"},
		"host_ns_per_event": {ratio(sec*1e9, epochs), "ns"},
		"setup_s":           {setupS * m.hostScale(), "s"},
		"alloc_mb":          {m.allocPerOp / 1e6, "MB"},
		"max_rss_mb":        {maxRSSBytes() / 1e6, "MB"},
	}
	units := map[string]string{
		"sim_jobs_per_hour":  "1/h",
		"sim_mean_sojourn_s": "s",
		"sim_p95_sojourn_s":  "s",
		"sim_goodput_pct":    "%",
		"pred_err_pct":       "%",
		"stp":                "ratio",
		"antt_reduction_pct": "%",
	}
	for k, v := range m.sim.metrics() {
		out[k] = metric{v, units[k]}
	}
	return out
}

func (m *measurement) layerMetrics() map[string]metric {
	t := m.tr
	ops := float64(t.ops)
	perOp := func(ns int64) float64 { return float64(ns) / 1e9 / ops }
	per := func(a, b int64) float64 { return ratio(float64(a), float64(b)) }
	cb := t.sched.inclusiveNS + t.bench.inclusiveNS
	scale := m.hostScale()
	untracedRate, tracedRate := appsPerSec(m.untraced)/scale, appsPerSec(m.traced)/scale
	var apps int64
	for _, s := range m.traced {
		apps += int64(s.apps)
	}
	return map[string]metric{
		"cluster.run_s":              {perOp(t.runNS), "s"},
		"cluster.self_s":             {perOp(t.runNS - cb), "s"},
		"cluster.self_ns_per_epoch":  {per(t.runNS-cb, t.epochs), "ns"},
		"cluster.epochs":             {float64(t.epochs) / ops, "count"},
		"cluster.executors_per_node": {ratio(t.execSum, float64(t.execSamples)), "count"},
		"cluster.oom_kills":          {float64(t.oom) / ops, "count"},
		"cluster.preempt_kills":      {float64(t.preempt) / ops, "count"},
		"cluster.fail_kills":         {float64(t.fail) / ops, "count"},
		"cluster.migrations":         {float64(t.mig) / ops, "count"},
		"cluster.new_s":              {perOp(t.newNS), "s"},
		"sched.schedule_calls":       {float64(t.sched.schedCalls) / ops, "count"},
		"sched.schedule_ns_per_call": {per(t.sched.scheduleNS, t.sched.schedCalls), "ns"},
		"sched.waiting_per_call":     {per(t.sched.waitingSeen, t.sched.schedCalls), "count"},
		"sched.place_yield":          {per(t.sched.placed, t.sched.waitingSeen), "ratio"},
		"sched.schedule_s":           {perOp(t.sched.scheduleNS), "s"},
		"sched.prepare_ns_per_app":   {per(t.sched.prepareNS, t.sched.prepareApps), "ns"},
		"sched.observe_s":            {perOp(t.sched.observeNS), "s"},
		"moe.predict_calls":          {float64(t.predictReqs) / ops, "count"},
		"moe.predict_ns_per_call":    {per(t.predictNS, t.predictReqs), "ns"},
		"moe.repeat_ratio":           {per(t.repeats, t.predictReqs), "ratio"},
		"moe.confident_ratio":        {per(t.confident, t.predictReqs), "ratio"},
		"moe.fallback_ratio":         {per(t.fellBack, t.predictReqs), "ratio"},
		"moe.observe_calls":          {float64(t.moeObserve) / ops, "count"},
		"moe.observe_s":              {perOp(t.moeObserveNS), "s"},
		"moe.gate_ns_per_req":        {per(t.gateNS, t.replayed), "ns"},
		"moe.calibrate_ns_per_req":   {per(t.calibrateNS, t.replayed), "ns"},
		"metrics.measure_s":          {perOp(t.measureNS), "s"},
		"driver.schedule_s":          {perOp(t.bench.scheduleNS), "s"},
		"trace.untraced_apps_per_s":  {untracedRate, "1/s"},
		"trace.traced_apps_per_s":    {tracedRate, "1/s"},
		"trace.overhead_pct":         {100 * (ratio(untracedRate, tracedRate) - 1), "%"},
		"host.reference_s":           {median(m.refSecs), "s"},
	}
}

// report prints the metrics as a table and then, as the last line, the JSON
// result.
func report(w io.Writer, m *measurement, metrics map[string]metric) int {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{m.correct(), m.attempted, m.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the CPU time the process has used, user and system. Unlike
// wall time it leaves out the time the process waits while the host runs
// something else.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // kilobytes on Linux
}
