// Package placement partitions a keyspace across many placement groups
// (PGs), each backed by its own independent atomic-broadcast ring, and maps
// every PG onto a replica subset of a fixed node fleet. It is the scale-out
// layer: per-group throughput is fully characterized, so "millions of
// users" must come from many groups sharing the fabric and the fleet's CPUs.
//
// The design is CRUSH-lite, modeled on fastblock's monitor PG/pool
// configuration (pg_count / pg_size / failure_domain and the PG→OSD map):
//
//   - keys route to PGs by stable hashing (KeyPG), so the PG of a key is a
//     pure function of the key and the PG count;
//   - each PG picks its pg_size members by seeded rendezvous (highest-
//     random-weight) hashing over the fleet, so the map is a pure function
//     of (seed, pg count, pg size, fleet, domains) — no central allocator,
//     no map iteration, no host state;
//   - a failure-domain spread rule caps how many members of one PG may
//     share a domain, so a domain loss never takes a whole group down;
//   - leaders are round-robined across the fleet: each PG's leader is the
//     member with the fewest leaderships assigned so far (ties broken by
//     rendezvous score), following Aguilera et al.'s observation that RDMA
//     agreement wins evaporate when one node's NIC/CPU serializes the fleet.
//
// Everything in this package is deterministic by construction: the only
// collections are slices, the only ordering is explicit sorting with total
// comparators, and all randomness is the seeded rendezvous hash itself.
package placement

import (
	"fmt"
	"sort"

	"acuerdo/internal/digest"
)

// Config parameterizes a placement map, mirroring fastblock's pool config.
type Config struct {
	// PGs is the placement-group count (pg_count): how many independent
	// broadcast rings partition the keyspace.
	PGs int
	// PGSize is the replica count of each group (pg_size); rings are
	// n = 2f+1 quorum systems, so 3 tolerates one fault per group.
	PGSize int
	// Fleet is the number of physical nodes PGs are placed onto. Multiple
	// PG replicas may share one fleet node (and then share its CPU).
	Fleet int
	// Domains is the failure-domain count; fleet node i belongs to domain
	// i mod Domains (racks interleaved across the node numbering). The
	// spread rule caps members of one PG per domain at ceil(PGSize/Domains).
	Domains int
	// Seed perturbs every rendezvous score, so two maps built from
	// different seeds place PGs differently while each is reproducible.
	Seed int64
}

// DefaultConfig returns a map configuration for pgs groups of three
// replicas over a twelve-node fleet split into four failure domains.
func DefaultConfig(pgs int) Config {
	return Config{PGs: pgs, PGSize: 3, Fleet: 12, Domains: 4, Seed: 1}
}

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	if c.PGs < 1 {
		return fmt.Errorf("placement: need at least one PG, got %d", c.PGs)
	}
	if c.PGSize < 1 {
		return fmt.Errorf("placement: need at least one replica per PG, got %d", c.PGSize)
	}
	if c.Fleet < c.PGSize {
		return fmt.Errorf("placement: fleet of %d cannot host %d-replica PGs", c.Fleet, c.PGSize)
	}
	if c.Domains < 1 {
		return fmt.Errorf("placement: need at least one failure domain, got %d", c.Domains)
	}
	if c.Domains > c.Fleet {
		return fmt.Errorf("placement: %d domains over a fleet of %d leaves empty domains", c.Domains, c.Fleet)
	}
	return nil
}

// Domain returns the failure domain of fleet node n.
func (c Config) Domain(n int) int { return n % c.Domains }

// DomainQuota returns the spread rule's cap: how many members of one PG may
// share a failure domain (ceil(PGSize / Domains)).
func (c Config) DomainQuota() int {
	return (c.PGSize + c.Domains - 1) / c.Domains
}

// Group is one placement group's slot in the map.
type Group struct {
	// ID is the group's index in [0, PGs).
	ID int
	// Members lists the fleet nodes hosting the group's replicas, leader
	// first: replica i of the group's ring runs on fleet node Members[i],
	// and the ring's initial leader is replica 0. The rotation is what
	// implements leader placement — the ring itself just elects its lowest
	// replica index first.
	Members []int
	// Leader is the fleet node designated to lead the group
	// (== Members[0]).
	Leader int
}

// Map is a fully materialized placement: every PG's member set and leader.
type Map struct {
	// Config echoes the configuration the map was built from.
	Config Config
	// Groups holds one entry per PG, in PG-ID order.
	Groups []Group
}

// score is the rendezvous weight of placing pg on fleet node n under seed:
// every (seed, pg, node) triple gets an independent pseudo-random 64-bit
// draw, and each PG takes the highest-scoring nodes the spread rule allows.
func score(seed int64, pg, n int) uint64 {
	basis := digest.Sum(0x9e3779b97f4a7c15) // splitmix64 golden-gamma
	return uint64(basis.Uint64(uint64(seed)).Uint64(uint64(pg)).Uint64(uint64(n)))
}

// Build materializes the placement map for cfg. The result is a pure
// function of cfg: same configuration, byte-identical map, on any host and
// under any concurrency (nothing here depends on goroutines, map iteration,
// or global state).
func Build(cfg Config) (*Map, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Map{Config: cfg, Groups: make([]Group, cfg.PGs)}
	quota := cfg.DomainQuota()
	// leaderLoad counts leaderships assigned so far per fleet node; the
	// round-robin rule picks each PG's least-loaded member.
	leaderLoad := make([]int, cfg.Fleet)

	type cand struct {
		node  int
		score uint64
	}
	cands := make([]cand, cfg.Fleet)
	domUsed := make([]int, cfg.Domains)

	for pg := 0; pg < cfg.PGs; pg++ {
		for n := 0; n < cfg.Fleet; n++ {
			cands[n] = cand{node: n, score: score(cfg.Seed, pg, n)}
		}
		// Highest rendezvous weight first; the node id breaks (vanishingly
		// unlikely) score ties so the order is total.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			return cands[i].node < cands[j].node
		})
		for i := range domUsed {
			domUsed[i] = 0
		}
		members := make([]int, 0, cfg.PGSize)
		scores := make([]uint64, 0, cfg.PGSize)
		for _, c := range cands {
			if len(members) == cfg.PGSize {
				break
			}
			d := cfg.Domain(c.node)
			if domUsed[d] >= quota {
				continue // spread rule: this domain is full for this PG
			}
			domUsed[d]++
			members = append(members, c.node)
			scores = append(scores, c.score)
		}
		if len(members) < cfg.PGSize {
			// The quota admits at least PGSize nodes whenever
			// Domains*quota >= PGSize, which DomainQuota guarantees, and
			// Fleet >= PGSize is validated — so this is unreachable; kept
			// as a defensive contract check.
			return nil, fmt.Errorf("placement: pg %d placed only %d of %d replicas", pg, len(members), cfg.PGSize)
		}
		// Round-robin leader: the least-leader-loaded member, rendezvous
		// score (then node id) breaking ties, rotated to the front so the
		// ring's replica 0 — its initial leader — runs there.
		lead := 0
		for i := 1; i < len(members); i++ {
			li, l0 := leaderLoad[members[i]], leaderLoad[members[lead]]
			if li < l0 ||
				(li == l0 && scores[i] > scores[lead]) {
				lead = i
			}
		}
		leaderLoad[members[lead]]++
		members[0], members[lead] = members[lead], members[0]
		m.Groups[pg] = Group{ID: pg, Members: members, Leader: members[0]}
	}
	return m, nil
}

// KeyPG routes a key to its placement group by stable hashing: the same key
// always lands in the same PG for a given PG count.
func (m *Map) KeyPG(key string) int {
	return int(uint64(digest.Offset.Str(key)) % uint64(m.Config.PGs))
}

// LeaderCounts returns how many groups each fleet node leads.
func (m *Map) LeaderCounts() []int {
	counts := make([]int, m.Config.Fleet)
	for _, g := range m.Groups {
		counts[g.Leader]++
	}
	return counts
}

// ReplicaCounts returns how many PG replicas each fleet node hosts.
func (m *Map) ReplicaCounts() []int {
	counts := make([]int, m.Config.Fleet)
	for _, g := range m.Groups {
		for _, n := range g.Members {
			counts[n]++
		}
	}
	return counts
}

// HostedOn returns every (pg, replica-index) pair placed on fleet node n,
// in PG order — the co-location set a node-level fault takes down together.
func (m *Map) HostedOn(n int) [][2]int {
	var out [][2]int
	for _, g := range m.Groups {
		for i, mem := range g.Members {
			if mem == n {
				out = append(out, [2]int{g.ID, i})
			}
		}
	}
	return out
}

// Fingerprint folds the entire map — configuration, every member list,
// every leader — into one FNV-1a digest. Two maps built from the same
// configuration must match exactly; seed-replay harnesses fold this into
// their run fingerprints.
func (m *Map) Fingerprint() digest.Sum {
	c := m.Config
	h := digest.Offset.Uint64(uint64(c.PGs)).Uint64(uint64(c.PGSize)).
		Uint64(uint64(c.Fleet)).Uint64(uint64(c.Domains)).Uint64(uint64(c.Seed))
	for _, g := range m.Groups {
		h = h.Uint64(uint64(g.ID)).Uint64(uint64(g.Leader))
		for _, n := range g.Members {
			h = h.Uint64(uint64(n))
		}
	}
	return h
}
