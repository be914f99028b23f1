package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// Unit tests for the completion heap's invariants, independent of the engine:
// lazy-deletion staleness, duplicate registrations for one entity, FIFO pop
// order among equal deadlines, and randomized heap-vs-scan min agreement.
// The differential property tests cover the same structure end-to-end; these
// pin the data-structure contract directly so a violation fails with a
// one-screen reproduction instead of a diverging 20k-app run.

// TestCompletionEntryStaleness pins the validity rule: an entry speaks for
// its entity only while the stored deadline (or a node's wake time) still
// equals the entry's time and the entity has not completed.
func TestCompletionEntryStaleness(t *testing.T) {
	a := &App{ID: 1, State: StateRunning, deadline: 50}
	e := completionEntry{at: 50, seq: 1, app: a}
	if e.stale() {
		t.Error("matching deadline on a live app must be fresh")
	}
	//moevet:allow settledstate staleness unit test drives the stored deadline by hand; no engine is running
	a.deadline = 60 // re-registered later: the old entry dies in place
	if !e.stale() {
		t.Error("entry must go stale when the stored deadline moves")
	}
	//moevet:allow settledstate staleness unit test drives the stored deadline by hand; no engine is running
	a.deadline = 50
	a.State = StateDone
	if !e.stale() {
		t.Error("entry for a done app must be stale even with a matching deadline")
	}

	f := &ForeignTask{Name: "co", deadline: 30}
	fe := completionEntry{at: 30, seq: 2, f: f}
	if fe.stale() {
		t.Error("matching deadline on a live foreign task must be fresh")
	}
	//moevet:allow settledstate staleness unit test completes the task by hand; no engine is running
	f.done = true
	if !fe.stale() {
		t.Error("entry for a done foreign task must be stale")
	}

	// Node wake-up entries live on the same heap type: live while the
	// node's wake time still equals the entry's, stale once it moves.
	n := &Node{ID: 3, wakeAt: 20}
	we := completionEntry{at: 20, n: n}
	if we.stale() {
		t.Error("matching wake time on a node must be fresh")
	}
	//moevet:allow settledstate staleness unit test moves the wake time by hand; no engine is running
	n.wakeAt = 25 // a later rate pass re-registered the wake-up
	if !we.stale() {
		t.Error("wake entry must go stale when the node's wake time moves")
	}
	//moevet:allow settledstate staleness unit test clears the wake time by hand; no engine is running
	n.wakeAt = math.Inf(1) // the wake-up fired
	if !we.stale() {
		t.Error("wake entry must be stale once the node has no pending wake-up")
	}
}

// TestCompletionHeapDuplicatePushes re-registers one app several times, as a
// string of rate changes does: every superseded entry must surface stale and
// exactly one pop must be live, at the final deadline.
func TestCompletionHeapDuplicatePushes(t *testing.T) {
	var h completionHeap
	a := &App{ID: 7, State: StateRunning}
	for i, at := range []float64{100, 40, 70, 55} {
		//moevet:allow settledstate heap unit test re-registers deadlines by hand; no engine is running
		a.deadline = at
		h.push(completionEntry{at: at, seq: uint64(i + 1), app: a})
	}
	live := 0
	for {
		top, ok := h.pop()
		if !ok {
			break
		}
		if top.stale() {
			continue
		}
		live++
		if top.at != 55 {
			t.Errorf("live entry at %v, want the final registration 55", top.at)
		}
	}
	if live != 1 {
		t.Errorf("%d live entries for one app, want exactly 1", live)
	}
}

// TestCompletionHeapEqualDeadlineFIFO pushes many entries with one deadline
// and checks pops come back in registration (seq) order — the tie-break that
// keeps same-instant completions deterministic — including after a compact
// rebuilt the heap around interleaved stale entries.
func TestCompletionHeapEqualDeadlineFIFO(t *testing.T) {
	var h completionHeap
	const n = 32
	apps := make([]*App, n)
	for i := range apps {
		apps[i] = &App{ID: i, State: StateRunning, deadline: 200}
		h.push(completionEntry{at: 200, seq: uint64(i + 1), app: apps[i]})
	}
	// Invalidate every third app and push fresh later deadlines for them, so
	// compact has real work and survivors keep their original seqs.
	for i := 0; i < n; i += 3 {
		//moevet:allow settledstate compaction unit test invalidates deadlines by hand; no engine is running
		apps[i].deadline = 300
		h.push(completionEntry{at: 300, seq: uint64(n + i + 1), app: apps[i]})
	}
	h.compact()
	var lastSeq uint64
	var lastAt float64
	for {
		top, ok := h.pop()
		if !ok {
			break
		}
		if top.stale() {
			t.Fatalf("stale entry survived compact: at=%v seq=%d", top.at, top.seq)
		}
		if top.at < lastAt || (top.at == lastAt && top.seq <= lastSeq) {
			t.Fatalf("pop order broken: (at=%v seq=%d) after (at=%v seq=%d)", top.at, top.seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = top.at, top.seq
	}
}

// TestCompletionHeapRandomizedMinAgreement drives the heap through random
// registrations, re-registrations, completions and pops, mirroring the live
// deadline of every entity in a plain map; at every pop the surfaced live
// minimum must equal a linear scan of the mirror under the (at, seq) order.
func TestCompletionHeapRandomizedMinAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var h completionHeap
	var seq uint64
	type reg struct {
		at  float64
		seq uint64
	}
	mirror := map[*App]reg{}
	var apps []*App
	register := func(a *App, at float64) {
		seq++
		//moevet:allow settledstate randomized heap test mirrors registrations by hand; no engine is running
		a.deadline = at
		h.push(completionEntry{at: at, seq: seq, app: a})
		mirror[a] = reg{at: at, seq: seq}
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(apps) == 0: // new entity
			a := &App{ID: len(apps), State: StateRunning}
			apps = append(apps, a)
			register(a, 1000*rng.Float64())
		case op < 7: // re-register an existing entity (rate change)
			a := apps[rng.Intn(len(apps))]
			if a.State != StateDone {
				register(a, 1000*rng.Float64())
			}
		case op < 8: // complete an entity without popping (lazy death)
			a := apps[rng.Intn(len(apps))]
			if a.State != StateDone {
				a.State = StateDone
				delete(mirror, a)
			}
		default: // pop the live minimum and check it against the scan
			var want *App
			best := reg{at: math.Inf(1)}
			//moevet:allow maporder min selection under the (at, seq) total order has a unique winner
			for a, r := range mirror {
				if r.at < best.at || (r.at == best.at && r.seq < best.seq) {
					best, want = r, a
				}
			}
			var got *App
			for {
				top, ok := h.pop()
				if !ok {
					break
				}
				if top.stale() {
					continue
				}
				got = top.app
				break
			}
			if got != want {
				t.Fatalf("step %d: heap min app %v, scan min app %v", step, got, want)
			}
			if want != nil {
				if got.deadline != best.at {
					t.Fatalf("step %d: popped deadline %v, mirror %v", step, got.deadline, best.at)
				}
				// Popped = consumed: the engine marks the app done or
				// re-registers; here it leaves the system.
				got.State = StateDone
				delete(mirror, got)
			}
		}
		if step%500 == 250 {
			h.compact()
			if len(h) != len(mirror) {
				t.Fatalf("step %d: %d entries after compact, %d live entities", step, len(h), len(mirror))
			}
		}
	}
}
