package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// runOp runs every scenario of one operation and returns their outcomes.
func runOp(t *testing.T, op []scenario, tr *tracer) []runStats {
	t.Helper()
	out := make([]runStats, len(op))
	for i := range op {
		st, err := simulate(&op[i], tr)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		out[i] = st
	}
	return out
}

// TestTracedMatchesUntraced pins that wrapping the layer boundaries changes
// no simulated outcome, and that each trace attributes time to the layers
// its workload exercises.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s, err := w.setup(3)
			if err != nil {
				t.Fatal(err)
			}
			op := s.ops[0]
			plain := runOp(t, op, nil)
			tr := &tracer{}
			var apps int
			for _, sc := range op {
				apps += len(sc.subs)
			}
			tr.reserve(apps)
			traced := runOp(t, op, tr)
			tr.finishOp(s.model, s.staticGate)
			if !slices.Equal(plain, traced) {
				t.Fatal("traced run changed the simulated outcome")
			}
			if tr.familyMismatches != 0 {
				t.Errorf("%d replayed gate decisions differ from the in-run ones", tr.familyMismatches)
			}
			if tr.runNS <= 0 || tr.epochs <= 0 || tr.execSamples == 0 {
				t.Errorf("cluster layer not traced: run %d ns, %d epochs", tr.runNS, tr.epochs)
			}
			if w.name == "coloc-dense" {
				if tr.sched.scheduleNS != 0 || tr.predictNS != 0 || tr.predictReqs != 0 {
					t.Errorf("sched or moe time on a workload that bypasses them: %+v", tr.sched)
				}
				if tr.bench.scheduleNS <= 0 {
					t.Error("packing policy's Schedule not traced")
				}
				return
			}
			if tr.sched.scheduleNS <= 0 || tr.predictReqs != int64(apps) || tr.replayed != int64(apps) {
				t.Errorf("sched/moe layers not traced: %d schedule ns, %d predict requests for %d apps, %d replayed",
					tr.sched.scheduleNS, tr.predictReqs, apps, tr.replayed)
			}
			if w.name == "burst-churn" && tr.moeObserve == 0 {
				t.Error("adaptive predictor observed nothing")
			}
		})
	}
}

// TestSeedReproducesOutcome pins that one seed gives the same simulated
// outcome from a fresh set-up, and another seed a different one.
func TestSeedReproducesOutcome(t *testing.T) {
	w, err := findWorkload("burst-churn")
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(seed int64) []runStats {
		s, err := w.setup(seed)
		if err != nil {
			t.Fatal(err)
		}
		return runOp(t, s.ops[1], nil)
	}
	a := outcome(5)
	if !slices.Equal(a, outcome(5)) {
		t.Fatal("the same seed gave different simulated outcomes")
	}
	if slices.Equal(a, outcome(6)) {
		t.Fatal("different seeds gave identical simulated outcomes")
	}
}

// TestCommandReportsEveryMetric runs the command end to end in both modes and
// checks that the result line carries exactly the metrics BENCHMARK.json
// lists, with their units.
func TestCommandReportsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var spec struct {
		EndToEnd []listed `json:"end_to_end"`
		PerLayer []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for mode, want := range map[string][]listed{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "paper-mixes", "--seed", "2", "--seconds", "0.1", "--trace", mode}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d: %s", mode, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", mode, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("--trace %s: %d metrics, BENCHMARK.json lists %d", mode, len(res.Metrics), len(want))
		}
		for _, l := range want {
			if got, ok := res.Metrics[l.Name]; !ok || got.Unit != l.Unit {
				t.Errorf("--trace %s: metric %s = %+v, want unit %q", mode, l.Name, got, l.Unit)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, new(bytes.Buffer), new(bytes.Buffer)); code == 0 {
		t.Error("unknown workload accepted")
	}
}

// TestReferenceAllocatesNothing pins that the reference operation timed
// between measured operations leaves the allocation metric untouched once
// its buffers have grown.
func TestReferenceAllocatesNothing(t *testing.T) {
	r := newReference()
	r.run()
	if n := testing.AllocsPerRun(2, r.run); n != 0 {
		t.Errorf("reference operation allocates %v times per run", n)
	}
}
