// Package cluster is a settledstate fixture: it fakes the engine types
// (App, ForeignTask, Node, Executor in a package named cluster) so the
// analyzer's field table applies, then writes their settle-discipline fields
// from both allowed touch points and stray helpers.
package cluster

// App mirrors the engine's settle-discipline fields.
type App struct {
	ID          int
	RemainingGB float64
	profileLeft float64
	settledAt   float64
	deadline    float64
	touched     bool
}

// ForeignTask mirrors the engine's foreign-load bookkeeping.
type ForeignTask struct {
	Name      string
	remaining float64
	settledAt float64
	deadline  float64
	touched   bool
	done      bool
}

// Node mirrors the engine's wake bookkeeping and its cached memory/CPU sums
// with the lists they are summed from.
type Node struct {
	ID         int
	wakeAt     float64
	Executors  []*Executor
	Foreign    []*ForeignTask
	reservedGB float64
	actualGB   float64
	cpuDemand  float64
}

// Executor mirrors the engine's cached cache-efficiency factor and the
// allocation fields it is derived from, plus the inputs of the node sums.
type Executor struct {
	ItemsGB     float64
	FairShareGB float64
	cacheEff    float64
	ReservedGB  float64
	ActualGB    float64
	Demand      float64
}

// Cluster is the owning engine stand-in.
type Cluster struct {
	now  float64
	apps []*App
}

// settleApp is an allowed touch point: the whole point of the discipline
// is that settlement happens here.
func (c *Cluster) settleApp(a *App, rate float64) {
	a.RemainingGB -= rate * (c.now - a.settledAt)
	a.settledAt = c.now
	a.touched = true
}

// settleForeign is also on the allowlist.
func (c *Cluster) settleForeign(f *ForeignTask) {
	f.remaining -= c.now - f.settledAt
	f.settledAt = c.now
}

// markDirty is an allowed touch point for node wake bookkeeping.
func (c *Cluster) markDirty(n *Node, at float64) {
	n.wakeAt = at
}

// evilSettle duplicates settleApp's body outside the allowlist: exactly
// the bug class the analyzer exists to catch.
func (c *Cluster) evilSettle(a *App, rate float64) {
	a.RemainingGB -= rate * (c.now - a.settledAt) // want `write to settle-discipline field App.RemainingGB`
	a.settledAt = c.now                           // want `write to settle-discipline field App.settledAt`
}

// drainForeign decrements remaining outside the allowlist.
func drainForeign(f *ForeignTask, amount float64) {
	f.remaining -= amount // want `write to settle-discipline field ForeignTask.remaining`
	if f.remaining <= 0 {
		f.done = true // want `write to settle-discipline field ForeignTask.done`
	}
}

// pokeNode writes wakeAt outside the allowlist.
func pokeNode(n *Node) {
	n.wakeAt = 0 // want `write to settle-discipline field Node.wakeAt`
}

// readOnly only reads settled fields: reads are always fine.
func readOnly(a *App, f *ForeignTask) float64 {
	if f.done {
		return a.RemainingGB
	}
	return a.deadline - a.settledAt
}

// trailingAllow shows the trailing-comment annotation form.
func trailingAllow(a *App) {
	a.deadline = 0 //moevet:allow settledstate test harness resets the deadline between scenarios
}

// rateNode is the engine's per-node rate pass: allowed to place the wake
// time it derives.
func (c *Cluster) rateNode(n *Node) {
	n.wakeAt = c.now
}

// wakeShortcut recomputes a wake time outside the engine's touch points:
// the stray-writer class the analyzer exists to catch.
func wakeShortcut(n *Node, at float64) {
	n.wakeAt = at // want `write to settle-discipline field Node.wakeAt`
}

// Grow is an allowed touch point: it rewrites the allocation and refreshes
// the cached factor derived from it.
func (c *Cluster) Grow(e *Executor, items float64) {
	e.ItemsGB = items
	c.refreshCacheEff(e)
}

// refreshCacheEff is the allowed helper that re-derives the cached factor.
func (c *Cluster) refreshCacheEff(e *Executor) {
	e.cacheEff = e.ItemsGB / e.FairShareGB
}

// shrinkInPlace rewrites an allocation outside the touch points, leaving
// the cached factor stale: the stray-writer class the analyzer exists to
// catch.
func shrinkInPlace(e *Executor) {
	e.ItemsGB /= 2    // want `write to settle-discipline field Executor.ItemsGB`
	e.FairShareGB = 0 // want `write to settle-discipline field Executor.FairShareGB`
	e.cacheEff = 1    // want `write to settle-discipline field Executor.cacheEff`
}

// resum is the allowed helper that rebuilds a node's cached sums.
func (n *Node) resum() {
	n.reservedGB, n.actualGB, n.cpuDemand = 0, 0, 0
	for _, e := range n.Executors {
		n.reservedGB += e.ReservedGB
		n.actualGB += e.ActualGB
		n.cpuDemand += e.Demand
	}
}

// removeExecutor is an allowed mutation point: it detaches the executor and
// re-sums the node.
func (c *Cluster) removeExecutor(n *Node, i int) {
	n.Executors = append(n.Executors[:i], n.Executors[i+1:]...)
	n.resum()
}

// evictInPlace drops an executor and patches the cached sums by hand outside
// the mutation points: the stray-writer class that leaves a cache a ulp off
// its re-sum.
func evictInPlace(n *Node, e *Executor) {
	n.Executors = n.Executors[:len(n.Executors)-1] // want `write to settle-discipline field Node.Executors`
	n.reservedGB -= e.ReservedGB                   // want `write to settle-discipline field Node.reservedGB`
	n.Foreign = nil                                // want `write to settle-discipline field Node.Foreign`
	e.ActualGB = 0                                 // want `write to settle-discipline field Executor.ActualGB`
	e.Demand++                                     // want `write to settle-discipline field Executor.Demand`
}
