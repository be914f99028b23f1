package main

import (
	"cmp"
	"math/rand"
	"slices"
)

// The host's speed drifts by tens of per cent over minutes, and CPU time
// drifts with it. The benchmark therefore times a fixed reference operation
// before every measured operation and reports host times scaled to a host on
// which the reference takes refNominalSec of CPU time.
//
// The reference is a small discrete-event simulation written here, sharing
// no code with the simulator under test, so that changes to the program do
// not move it. It has the simulator's shape: an event heap, per-node task
// lists rescanned with floating-point rate updates at every event, and
// sorting. A reference loop over a large array tracked the simulator's drift
// worse than raw CPU time did, so the shape matters.
const (
	refNodes      = 48
	refEvents     = 11000
	refNominalSec = 0.04
)

type refEvent struct {
	at   float64
	node int
}

type refTask struct {
	rem, mem float64
	id       int
}

// reference holds the reference operation's buffers. After the first run
// every run reuses them, so the reference allocates nothing while the
// benchmark measures allocation.
type reference struct {
	rng    *rand.Rand
	events []refEvent // binary min-heap on at
	tasks  []refTask
	nodes  [][]*refTask
	sum    float64 // keeps the work observable
}

func newReference() *reference {
	return &reference{
		rng:   rand.New(rand.NewSource(1)),
		tasks: make([]refTask, refEvents),
		nodes: make([][]*refTask, refNodes),
	}
}

// seconds runs the reference operation once and returns its CPU time.
func (r *reference) seconds() float64 {
	start := cpuSeconds()
	r.run()
	return cpuSeconds() - start
}

func (r *reference) run() {
	r.rng.Seed(1)
	r.events = r.events[:0]
	for i := range r.nodes {
		r.nodes[i] = r.nodes[i][:0]
	}
	for i := 0; i < refEvents; i++ {
		r.push(refEvent{r.rng.Float64() * 3000, r.rng.Intn(refNodes)})
	}
	now := 0.0
	for i := 0; len(r.events) > 0; i++ {
		e := r.pop()
		dt := e.at - now
		now = e.at
		for n, ts := range r.nodes {
			var mem float64
			for _, t := range ts {
				mem += t.mem
			}
			share := 1 / (1 + float64(len(ts)) + mem/64)
			kept := ts[:0]
			for _, t := range ts {
				t.rem -= share * (1 + 0.1*float64(t.id%3)) * dt
				if t.rem > 0 {
					kept = append(kept, t)
				}
			}
			r.nodes[n] = kept
		}
		t := &r.tasks[i]
		*t = refTask{rem: 1 + r.rng.Float64()*20, mem: r.rng.Float64() * 8, id: i}
		ts := append(r.nodes[e.node], t)
		slices.SortFunc(ts, func(a, b *refTask) int { return cmp.Compare(a.rem, b.rem) })
		r.nodes[e.node] = ts
		r.sum += ts[0].rem
	}
}

func (r *reference) push(e refEvent) {
	r.events = append(r.events, e)
	for i := len(r.events) - 1; i > 0; {
		p := (i - 1) / 2
		if r.events[p].at <= r.events[i].at {
			break
		}
		r.events[p], r.events[i] = r.events[i], r.events[p]
		i = p
	}
}

func (r *reference) pop() refEvent {
	h := r.events
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < len(h) && h[l].at < h[m].at {
			m = l
		}
		if l+1 < len(h) && h[l+1].at < h[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	r.events = h
	return top
}
