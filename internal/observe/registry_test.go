package observe

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"acuerdo/internal/digest"
)

// refRegistry is the register file the positional blocks replaced — one
// hash-table entry per register, keyed by the (a, b) pair each call site
// passed — kept as the reference TestRegistryDifferential compares checkReg
// against. It records violations as Observer.violate does.
type refRegistry struct {
	reg        map[refKey]regEntry
	violations []Violation
	fails      [numInvariants]int64
	digest     digest.Sum
}

type refKey struct {
	space uint8
	a, b  uint64
}

func (r *refRegistry) checkReg(space uint8, a, b uint64, val int64, inv Invariant, node int, at int64, what regName) regEntry {
	key := refKey{space: space, a: a, b: b}
	e, ok := r.reg[key]
	if !ok {
		e = regEntry{val: val, node: int32(node), at: at}
		r.reg[key] = e
		return e
	}
	if e.val != val {
		r.fails[inv]++
		r.digest = r.digest.Word(opViolation).Word(uint64(inv))
		r.violations = append(r.violations, Violation{
			System: "test", Invariant: inv, Node: node, At: at, Seed: 42, A: val, B: e.val,
			Detail: fmt.Sprintf("%s: node %d recorded %d but node %d recorded %d at t=%dns",
				refText(what, a, b), node, val, e.node, e.val, e.at),
		})
	}
	return e
}

// refText is the witness text keyed by the call site's (a, b): an Acuerdo
// header passed its epoch as a and its count as b.
func refText(r regName, a, b uint64) string {
	switch r {
	case regDelivery:
		return fmt.Sprintf("delivery position %d", a)
	case regDerechoView:
		return fmt.Sprintf("derecho view %d membership", a)
	case regDerechoPrefixLen:
		return fmt.Sprintf("derecho view %d delivered-prefix length", a)
	case regDerechoPrefixHash:
		return fmt.Sprintf("derecho view %d delivered-prefix hash", a)
	case regLogEntry:
		return fmt.Sprintf("log entry (index %d, term %d)", a, b)
	case regPaxosValue:
		return fmt.Sprintf("paxos (instance %d, ballot %d) value", a, b)
	case regPaxosChosen:
		return fmt.Sprintf("paxos instance %d chosen value", a)
	case regLeader:
		return fmt.Sprintf("leader for term %d", a)
	case regAcuerdoHeader:
		return fmt.Sprintf("acuerdo header (round %d, ldr %d, cnt %d) payload", a>>32, uint32(a), b)
	case regApusAssign:
		return fmt.Sprintf("apus slot %d assignment", a)
	default: // regApusDeliver
		return fmt.Sprintf("apus slot %d delivered payload", a)
	}
}

// regSite is one checkReg call site: its space, register and invariant, and
// whether it pairs its dense coordinate with a sparse one (and which of the
// two it passed first to the map-keyed registry).
type regSite struct {
	space  uint8
	what   regName
	inv    Invariant
	sparse bool
	hdr    bool // a = epoch (sparse), b = cnt (dense)
}

var regSites = []regSite{
	{spaceDeliver, regDelivery, InvDeliveryAgreement, false, false},
	{spaceView, regDerechoView, InvViewAgreement, false, false},
	{spaceVSCount, regDerechoPrefixLen, InvVirtualSynchrony, false, false},
	{spaceVSHash, regDerechoPrefixHash, InvVirtualSynchrony, false, false},
	{spaceLog, regLogEntry, InvLogMatching, true, false},
	{spaceBallot, regPaxosValue, InvBallotSingleValue, true, false},
	{spaceChosen, regPaxosChosen, InvChosenAgreement, false, false},
	{spaceLeader, regLeader, InvLeaderUniqueness, false, false},
	{spaceHdr, regAcuerdoHeader, InvDeliveryAgreement, true, true},
	{spaceAssign, regApusAssign, InvPrefixImmutable, false, false},
	{spaceAssign, regApusDeliver, InvPrefixImmutable, false, false},
}

// TestRegistryDifferential drives the positional register blocks and the
// map-keyed reference with the same seeded checks — every space, runs that
// cross block edges (63/64, 127/128), sparse Acuerdo epochs and far-apart
// coordinates, and a replay of the whole history that disagrees in places,
// as a durable restart's re-delivery may — and requires identical winning
// entries, violations, witness text, per-invariant failure counts and
// digest folds.
func TestRegistryDifferential(t *testing.T) {
	if sz := unsafe.Sizeof(regEntry{}); sz != 24 {
		t.Fatalf("a register entry is %d bytes, want 24", sz)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := New(Config{System: "test", Nodes: 5, Seed: 42})
		ref := &refRegistry{reg: make(map[refKey]regEntry), digest: digest.Offset}
		type op struct {
			site          int
			dense, sparse uint64
			val           int64
			node          int
		}
		var hist []op
		at, violations := int64(0), 0
		step := func(p op) {
			s := regSites[p.site]
			at++
			a, b := p.dense, p.sparse
			if s.hdr {
				a, b = b, a
			}
			got := o.checkReg(s.space, p.dense, p.sparse, p.val, s.inv, p.node, at, s.what)
			want := ref.checkReg(s.space, a, b, p.val, s.inv, p.node, at, s.what)
			if got.val != want.val || got.node != want.node || got.at != want.at || !got.set {
				t.Fatalf("seed %d: checkReg(%+v) = %+v, reference %+v", seed, p, got, want)
			}
			// Compare every witness, not just the first maxViolations the
			// observer retains: take each one as it lands.
			if len(o.violations) != len(ref.violations) || len(o.violations) == 1 && o.violations[0] != ref.violations[0] {
				t.Fatalf("seed %d: checkReg(%+v) witnessed %v, reference %v", seed, p, o.violations, ref.violations)
			}
			violations += len(o.violations)
			o.violations, ref.violations = o.violations[:0], ref.violations[:0]
		}
		sparseOf := func(s regSite) uint64 {
			switch {
			case !s.sparse:
				return 0
			case s.hdr: // an epoch: round<<32 | ldr, rounds far apart
				return uint64(rng.Intn(4)+1)<<32 | uint64(rng.Intn(5)) | uint64(rng.Intn(2))<<40
			default:
				return uint64(rng.Intn(3) + 1)
			}
		}
		// Contiguous runs across block edges, the way commits fill registers.
		for i := 0; i < 40; i++ {
			site := rng.Intn(len(regSites))
			sparse := sparseOf(regSites[site])
			base := []uint64{0, 60, 120, 1 << 20, 1<<40 - 3, ^uint64(0) - 70}[rng.Intn(6)]
			for d := base; d < base+uint64(rng.Intn(80)+1); d++ {
				hist = append(hist, op{site, d, sparse, int64(d%7) + 1, rng.Intn(5)})
			}
		}
		// Scattered checks on a small key set, so disagreements recur.
		for i := 0; i < 3000; i++ {
			site := rng.Intn(len(regSites))
			dense := []uint64{0, 1, 62, 63, 64, 65, 127, 128, 1 << 33}[rng.Intn(9)]
			hist = append(hist, op{site, dense, sparseOf(regSites[site]), int64(rng.Intn(3)), rng.Intn(5)})
		}
		for _, p := range hist {
			step(p)
		}
		// Replay the history as a recovering node would, one value in ten
		// disagreeing with what was recorded.
		for _, p := range hist {
			if rng.Intn(10) == 0 {
				p.val += int64(rng.Intn(2)*2 - 1)
			}
			p.node = rng.Intn(5)
			step(p)
		}
		if violations == 0 {
			t.Fatalf("seed %d: the disagreeing replay raised no violation", seed)
		}
		if o.fails != ref.fails || o.digest != ref.digest {
			t.Fatalf("seed %d: failure counts %v digest %x, reference %v %x", seed, o.fails, o.digest, ref.fails, ref.digest)
		}
	}
}
