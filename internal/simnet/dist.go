package simnet

import (
	"math"
	"math/rand"
	"time"
)

// Dist samples a non-negative duration from some distribution. Distributions
// are used for link jitter, descheduling pauses, and workload think times.
type Dist interface {
	Sample(rng *rand.Rand) time.Duration
}

// Constant is a degenerate distribution that always returns D.
type Constant struct{ D time.Duration }

func (c Constant) Sample(*rand.Rand) time.Duration { return c.D }

// Exponential samples from an exponential distribution with the given mean,
// truncated at Cap when Cap > 0. Exponential jitter is the conventional model
// for switch queueing noise.
type Exponential struct {
	MeanD time.Duration
	Cap   time.Duration
}

func (e Exponential) Sample(rng *rand.Rand) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(e.MeanD))
	if e.Cap > 0 && d > e.Cap {
		d = e.Cap
	}
	return d
}

// LogNormal samples exp(N(Mu, Sigma)) nanoseconds, truncated at Cap when
// Cap > 0. Heavy-tailed pauses (GC, scheduler preemption) are well modelled
// by a lognormal.
type LogNormal struct {
	Mu    float64 // log-scale location (log nanoseconds)
	Sigma float64
	Cap   time.Duration
}

func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	d := time.Duration(math.Exp(rng.NormFloat64()*l.Sigma + l.Mu))
	if d < 0 {
		d = 0
	}
	if l.Cap > 0 && d > l.Cap {
		d = l.Cap
	}
	return d
}
