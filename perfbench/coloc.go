package main

import "moespark/internal/cluster"

// packer is coloc-dense's scheduling policy, built only from the public
// cluster API. It packs every waiting app across many nodes with small,
// deliberately under-reserved executors, so that nodes run dozens of
// executors each and most of the host time goes to the engine's per-node
// rate pass rather than to placement.
type packer struct {
	waitBuf []*cluster.App
	free    []float64 // per-node FreeGB for the current pass
	actual  []float64 // per-node ActualGB for the current pass
}

// Items and reservation as fractions of the app's fair share and of its
// footprint: items below the fair share keep the cache-efficiency penalty
// active, a reservation below the footprint keeps the heap penalty active.
const (
	packItemsFrac   = 0.6
	packReserveFrac = 0.8
	packMaxWaiting  = 48   // placement walk bound, in apps from the queue head
	packResidentCap = 0.85 // admit while projected residency stays below this share
)

func (*packer) Name() string { return "bench-packer" }

// Prepare profiles nothing. It records the reservation the policy would make
// for the app's fair-share allocation as its predicted footprint, which the
// benchmark's prediction-error metric compares with the true footprint.
func (*packer) Prepare(_ *cluster.Cluster, app *cluster.App) cluster.ProfilePlan {
	if app.MaxExecutors > 0 {
		items := packItemsFrac * app.Job.InputGB / float64(app.MaxExecutors)
		app.PredictedGB = packReserveFrac * app.Job.Bench.Footprint(items)
	}
	return cluster.ProfilePlan{}
}

func (p *packer) Schedule(c *cluster.Cluster) {
	p.waitBuf = c.AppendWaitingApps(p.waitBuf[:0])
	if len(p.waitBuf) == 0 {
		return
	}
	if len(p.waitBuf) > packMaxWaiting {
		p.waitBuf = p.waitBuf[:packMaxWaiting]
	}
	nodes := c.Nodes()
	// FreeGB and ActualGB sum a node's executors on every call; one snapshot
	// per pass, refreshed for the node just spawned on, reads the same values.
	if len(p.free) < len(nodes) {
		p.free = make([]float64, len(nodes))
		p.actual = make([]float64, len(nodes))
	}
	for i, n := range nodes {
		p.free[i] = n.FreeGB()
		p.actual[i] = n.ActualGB()
	}
	for _, app := range p.waitBuf {
		items := packItemsFrac * app.RemainingGB / float64(app.MaxExecutors)
		need := app.Job.Bench.Footprint(items)
		reserve := packReserveFrac * need
		// Rotating the scan start per app spreads executors evenly. A refused
		// spawn (such as a node the app already runs on) ends the app's scan.
		start := app.ID % len(nodes)
		for i := 0; i < len(nodes) && len(app.Executors) < app.MaxExecutors; i++ {
			idx := (start + i) % len(nodes)
			n := nodes[idx]
			if !n.Available() || app.BlockedOn(n, c.Now()) {
				continue
			}
			if reserve > p.free[idx] || p.actual[idx]+need > packResidentCap*n.Spec.UsableGB() {
				continue
			}
			if _, err := c.Spawn(app, n, reserve, items); err != nil {
				break
			}
			p.free[idx] = n.FreeGB()
			p.actual[idx] = n.ActualGB()
		}
	}
}
