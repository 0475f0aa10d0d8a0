// Package membership is the failure-detection layer of an elastic
// Data Cyclotron ring: each node sends small periodic heartbeat pulses
// to its ring successor (multiplexed over the existing data links) and
// times out the node it expects pulses *from* — its current
// predecessor. Verdicts are recorded in a monotonically versioned
// membership view that gossips around the ring with the beats, so every
// node converges on who is Alive, Suspect, or Dead without any central
// coordinator.
//
// The detector is a pure state machine, like core.Runtime: the live
// ring drives OnBeat/Pulse/Tick from its goroutines and real timers,
// and tests drive them directly. It performs no I/O, starts no
// goroutines, and never reads a clock — silence is counted in *ticks*,
// not wall time. That choice is deliberate: under CPU starvation (a
// loaded CI box, a saturated test run) the monitor's ticker coalesces
// exactly as much as the monitored node's beat loop stalls, so the
// silence counter and the heartbeats slow down together and the
// detector does not turn scheduler jitter into false-positive deaths.
package membership

import (
	"sync"
	"time"
)

// Status is one node's health in a membership view. The values form a
// lattice Alive < Suspect < Dead; views merge element-wise by maximum,
// which makes gossip convergent, and Dead is absorbing — this design
// has no rejoin, so a node declared dead stays dead (a restarted
// process joins as a new ring).
type Status uint8

// Status values.
const (
	Alive Status = iota
	Suspect
	Dead
)

func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "invalid"
}

// View is a versioned membership snapshot: one status per ring
// position. Versions are monotone per holder — every local detection
// event bumps the version past everything seen so far, and merging
// adopts the maximum — so a consumer (the client's node-list cache, the
// stats plumbing) can order two views by version alone.
type View struct {
	Version int64
	Status  []Status
}

// Counts tallies the view by status.
func (v View) Counts() (alive, suspect, dead int) {
	for _, s := range v.Status {
		switch s {
		case Suspect:
			suspect++
		case Dead:
			dead++
		default:
			alive++
		}
	}
	return
}

// Clone copies the view (Status is shared state in the detector).
func (v View) Clone() View {
	return View{Version: v.Version, Status: append([]Status(nil), v.Status...)}
}

// Config tunes the detector. Thresholds are in missed heartbeat
// intervals: a predecessor silent for SuspectAfter intervals becomes
// Suspect, for DeadAfter intervals Dead. The two-step verdict is the
// timeout-count analogue of phi-accrual suspicion: Suspect is cheap to
// revert (one heartbeat), Dead triggers failover and is permanent.
type Config struct {
	// HeartbeatInterval is the pulse period.
	HeartbeatInterval time.Duration
	// SuspectAfter is how many silent intervals make a node Suspect.
	SuspectAfter int
	// DeadAfter is how many silent intervals make a node Dead. It must
	// exceed SuspectAfter; WithDefaults enforces it.
	DeadAfter int
}

// DefaultConfig suits in-process rings: verdicts inside half a second.
func DefaultConfig() Config {
	return Config{HeartbeatInterval: 50 * time.Millisecond, SuspectAfter: 3, DeadAfter: 6}
}

// WithDefaults fills zero fields from DefaultConfig and enforces
// SuspectAfter < DeadAfter.
func (c Config) WithDefaults() Config {
	def := DefaultConfig()
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = def.HeartbeatInterval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = def.SuspectAfter
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter * 2
	}
	return c
}

// DeadTimeout is the silence that turns a predecessor Dead — the
// failure-detection latency floor (recovery gates are phrased as a
// multiple of it).
func (c Config) DeadTimeout() time.Duration {
	return time.Duration(c.DeadAfter) * c.HeartbeatInterval
}

// Detector is one node's membership state machine.
type Detector struct {
	mu   sync.Mutex
	self int
	cfg  Config

	view View

	// pred is the ring position this node currently receives beats
	// from; silent counts the Tick calls (heartbeat intervals) since
	// the last evidence of its life. A fresh predecessor starts at 0 —
	// a full timeout budget.
	pred   int
	silent int

	beats  int64 // direct heartbeats observed
	merges int64 // remote views merged

	// pendingDead accumulates positions a merge newly declared Dead,
	// drained by the public entry points (OnBeat, Adopt) after the
	// version bump so callers see deaths exactly once.
	pendingDead []int
}

// NewDetector builds the detector for ring position self of n nodes,
// initially monitoring pred.
func NewDetector(self, n, pred int, cfg Config) *Detector {
	return &Detector{
		self: self,
		cfg:  cfg.WithDefaults(),
		view: View{Status: make([]Status, n)},
		pred: pred,
	}
}

// Interval reports the heartbeat period.
func (d *Detector) Interval() time.Duration { return d.cfg.HeartbeatInterval }

// View snapshots the membership view.
func (d *Detector) View() View {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.view.Clone()
}

// Beats reports how many direct heartbeats this detector has observed.
func (d *Detector) Beats() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.beats
}

// SetPredecessor switches the monitored neighbour — the ring was
// spliced around a dead node — and resets its silence count so the new
// predecessor starts with a full timeout budget.
func (d *Detector) SetPredecessor(pred int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pred = pred
	d.silent = 0
}

// Pulse records implicit evidence that the predecessor is alive — any
// message received on the data link counts, not just heartbeats. A
// node pushing bulk data is definitionally not dead, even when its
// explicit pulses are stuck behind that very data; treating traffic as
// liveness keeps a saturated link from reading as a silent one. Like a
// direct beat, it clears a Suspect verdict; Dead stays dead.
func (d *Detector) Pulse() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.silent = 0
	p := d.pred
	if p >= 0 && p < len(d.view.Status) && d.view.Status[p] == Suspect {
		d.view.Status[p] = Alive
		d.view.Version++
	}
}

// OnBeat records a heartbeat from node from carrying its view, and
// merges that view into the local one (element-wise status maximum,
// version maximum — the convergent gossip step). A beat from the
// monitored predecessor resets its timeout and clears a Suspect verdict
// (it was slow, not dead); Dead is never cleared. It returns the nodes
// the merge newly declared Dead, for the caller to fail over
// (idempotently — several nodes may learn of a death at once).
func (d *Detector) OnBeat(from int, remote View) (newlyDead []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if from < 0 || from >= len(d.view.Status) {
		return nil
	}
	d.beats++
	changed := false
	if from == d.pred {
		d.silent = 0
		if d.view.Status[from] == Suspect {
			d.view.Status[from] = Alive
			changed = true
		}
	}
	if d.mergeLocked(remote) {
		changed = true
	}
	if changed {
		d.view.Version++
	}
	return d.drainNewlyDead()
}

// mergeLocked folds a remote view into the local one: grow first if the
// remote is longer (a join extended the ring — new positions start with
// whatever the remote says about them), then merge the common prefix by
// element-wise status maximum and adopt the version maximum. A remote
// that is *shorter* is the same ring before the newcomer was admitted;
// its prefix still carries valid evidence, so it merges too — growth is
// monotone and never retracted. Reports whether any status changed.
// Statuses that newly became Dead are queued in pendingDead for the
// caller to drain. d.mu must be held.
func (d *Detector) mergeLocked(remote View) (changed bool) {
	if len(remote.Status) == 0 {
		return false
	}
	if len(remote.Status) > len(d.view.Status) {
		d.growLocked(len(remote.Status))
		changed = true
	}
	d.merges++
	n := len(remote.Status)
	if n > len(d.view.Status) {
		n = len(d.view.Status)
	}
	for i := 0; i < n; i++ {
		rs := remote.Status[i]
		if i == d.self {
			continue // nobody else's view outranks ours about ourselves
		}
		if rs > d.view.Status[i] {
			if rs == Dead {
				d.pendingDead = append(d.pendingDead, i)
			}
			d.view.Status[i] = rs
			changed = true
		}
	}
	if remote.Version > d.view.Version {
		d.view.Version = remote.Version
	}
	return changed
}

// growLocked extends the view to n ring positions; new positions start
// Alive (a joiner is admitted alive and earns its own verdicts). The
// version bump is the caller's responsibility. d.mu must be held.
func (d *Detector) growLocked(n int) {
	for len(d.view.Status) < n {
		d.view.Status = append(d.view.Status, Alive)
	}
}

// drainNewlyDead returns and clears the deaths queued by mergeLocked.
// d.mu must be held.
func (d *Detector) drainNewlyDead() []int {
	nd := d.pendingDead
	d.pendingDead = nil
	return nd
}

// Grow extends the membership view to n ring positions (monotone — a
// smaller n is a no-op). The ring's admission path calls it on every
// live detector when a joiner is accepted, the way failover calls
// MarkDead: the authoritative event lands everywhere at once and gossip
// only confirms. It reports whether the view actually grew.
func (d *Detector) Grow(n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n <= len(d.view.Status) {
		return false
	}
	d.growLocked(n)
	d.view.Version++
	return true
}

// Adopt seeds the detector from a remote view out of band — the join
// handshake hands the newcomer the sponsor's current view before any
// beats flow. Unlike OnBeat it counts no heartbeat and resets no
// silence; it is a pure state merge. It returns the nodes the merge
// newly declared Dead (the seed may already carry death verdicts the
// caller must honour).
func (d *Detector) Adopt(remote View) (newlyDead []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.mergeLocked(remote) {
		d.view.Version++
	}
	return d.drainNewlyDead()
}

// Tick marks one heartbeat interval of silence elapsed and evaluates
// the predecessor timeout: SuspectAfter silent intervals make it
// Suspect, DeadAfter make it Dead. The caller invokes Tick once per
// interval from its beat timer; intervals the caller itself failed to
// run (scheduler starvation, ticker coalescing) simply do not count —
// a stalled accuser accumulates no evidence. It returns the nodes
// newly declared Dead (at most one — only the current predecessor is
// timed directly; everyone else's health arrives by gossip).
func (d *Detector) Tick() (newlyDead []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.pred
	if p < 0 || p >= len(d.view.Status) || p == d.self || d.view.Status[p] == Dead {
		return nil
	}
	d.silent++
	switch {
	case d.silent >= d.cfg.DeadAfter:
		d.view.Status[p] = Dead
		d.view.Version++
		return []int{p}
	case d.silent >= d.cfg.SuspectAfter:
		if d.view.Status[p] == Alive {
			d.view.Status[p] = Suspect
			d.view.Version++
		}
	}
	return nil
}

// MarkDead records an authoritative death verdict (the ring's failover
// declares it on every survivor, so gossip only confirms). It reports
// whether the verdict was news.
func (d *Detector) MarkDead(node int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if node < 0 || node >= len(d.view.Status) || d.view.Status[node] == Dead {
		return false
	}
	d.view.Status[node] = Dead
	d.view.Version++
	return true
}
