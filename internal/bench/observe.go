package bench

import (
	"acuerdo/internal/observe"
	"acuerdo/internal/simnet"
)

// NewObserver builds a runtime invariant observer for one instance of kind,
// stamped with the simulator's seed and wired to whatever tracer the simulator
// has when a violation happens (so violations land in the Chrome export). Pass
// the result as Options.Observer.
func NewObserver(sim *simnet.Sim, kind Kind, nodes int) *observe.Observer {
	return observe.New(observe.Config{
		System: string(kind),
		Nodes:  nodes,
		Seed:   sim.Seed(),
		Tracer: sim.Tracer,
	})
}
