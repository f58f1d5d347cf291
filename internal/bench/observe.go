package bench

import (
	"acuerdo/internal/abcast"
	"acuerdo/internal/digest"
	"acuerdo/internal/observe"
	"acuerdo/internal/simnet"
)

// NewObserver builds a runtime invariant observer for one instance of kind,
// stamped with the simulator's seed and wired to its tracer (so violations
// land in the Chrome export). Pass the result as Options.Observer.
func NewObserver(sim *simnet.Sim, kind Kind, nodes int) *observe.Observer {
	return observe.New(observe.Config{
		System: string(kind),
		Nodes:  nodes,
		Seed:   sim.Seed(),
		Tracer: sim.Tracer(),
	})
}

// observedSystem pairs a running system with its observer so the replay
// harness can harvest the check digest through abcast.Observed.
type observedSystem struct {
	abcast.System
	obs *observe.Observer
}

// ObserverDigest implements abcast.Observed.
func (s observedSystem) ObserverDigest() (sum digest.Sum, checks uint64, violations int64) {
	return s.obs.Digest(), s.obs.Checks(), s.obs.ViolationCount()
}

// ReplayBuilder adapts one benched system kind to the seed-replay harness:
// the instance is constructed on the harness's simulator and its per-replica
// delivery hook is routed into the harness's checker. With withObservers set,
// the instance runs under a runtime invariant observer and the returned
// system implements abcast.Observed, folding the observer digest into the
// replay fingerprint.
func ReplayBuilder(kind Kind, nodes int, withObservers bool) abcast.SystemBuilder {
	return func(sim *simnet.Sim, deliver func(replica int, payload []byte)) abcast.System {
		var opt Options
		var o *observe.Observer
		if withObservers {
			o = NewObserver(sim, kind, nodes)
			opt.Observer = o
		}
		inst := NewInstanceOn(sim, kind, nodes, opt)
		inst.Group.SetDeliver(deliver)
		if o != nil {
			return observedSystem{System: inst.Sys, obs: o}
		}
		return inst.Sys
	}
}

var _ abcast.Observed = observedSystem{}
