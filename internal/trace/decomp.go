package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Decomposition attributes end-to-end client latency to pipeline stages,
// averaged over every message whose full marker chain
// (submit → propose → first remote accept → commit → ack) was observed.
//
// The segments telescope:
//
//	Post  = propose − submit   client→leader handoff + verb post
//	Wire  = accept − propose   first network round (wire + remote poll)
//	Proto = commit − accept    quorum/ordering work until commit
//	Ack   = ack − commit       commit→client notification
//
// so Post+Wire+Proto+Ack equals Total (= ack − submit) exactly, by
// construction — the acceptance bar for the report is that the shares sum
// to the measured end-to-end latency.
type Decomposition struct {
	Messages int // messages with a complete marker chain
	Partial  int // messages acked but missing an intermediate marker

	// Per-stage sums over complete chains, simulated nanoseconds.
	PostNS, WireNS, ProtoNS, AckNS, TotalNS int64
}

// Post returns the mean client→propose share.
func (d Decomposition) Post() time.Duration { return d.mean(d.PostNS) }

// Wire returns the mean propose→first-remote-accept share.
func (d Decomposition) Wire() time.Duration { return d.mean(d.WireNS) }

// Proto returns the mean accept→commit share.
func (d Decomposition) Proto() time.Duration { return d.mean(d.ProtoNS) }

// Ack returns the mean commit→client-ack share.
func (d Decomposition) Ack() time.Duration { return d.mean(d.AckNS) }

// Total returns the mean end-to-end latency over complete chains.
func (d Decomposition) Total() time.Duration { return d.mean(d.TotalNS) }

func (d Decomposition) mean(sum int64) time.Duration {
	if d.Messages == 0 {
		return 0
	}
	return time.Duration(sum / int64(d.Messages))
}

func (d Decomposition) share(sum int64) float64 {
	if d.TotalNS == 0 {
		return 0
	}
	return 100 * float64(sum) / float64(d.TotalNS)
}

// String renders a one-line decomposition report.
func (d Decomposition) String() string {
	if d.Messages == 0 {
		return "decomposition: no complete marker chains"
	}
	return fmt.Sprintf(
		"decomposition over %d msgs (%d partial): post %v (%.1f%%) · wire %v (%.1f%%) · proto %v (%.1f%%) · ack %v (%.1f%%) · total %v",
		d.Messages, d.Partial,
		d.Post(), d.share(d.PostNS),
		d.Wire(), d.share(d.WireNS),
		d.Proto(), d.share(d.ProtoNS),
		d.Ack(), d.share(d.AckNS),
		d.Total())
}

// Decompose folds every complete marker chain observed so far into a
// Decomposition. Messages that were never acked (warmup traffic, traffic
// still in flight) are ignored; acked messages missing an intermediate
// stage are counted in Partial.
func (t *Tracer) Decompose() Decomposition {
	var d Decomposition
	if t == nil {
		return d
	}
	ids := make([]int64, 0, len(t.stages))
	for id := range t.stages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := t.sets.Ptr(t.stages[id])
		if s.submit < 0 || s.ack < 0 {
			continue // never acked, or ack seen without submit
		}
		if s.propose < 0 || s.accept < 0 || s.commit < 0 {
			d.Partial++
			continue
		}
		d.Messages++
		d.PostNS += s.propose - s.submit
		d.WireNS += s.accept - s.propose
		d.ProtoNS += s.commit - s.accept
		d.AckNS += s.ack - s.commit
		d.TotalNS += s.ack - s.submit
	}
	return d
}

// WriteCounters prints every nonzero counter, one per line, in counter
// order. Time-valued counters print as durations.
func (t *Tracer) WriteCounters(w io.Writer) {
	if t == nil {
		return
	}
	for c := Counter(0); c < numCounters; c++ {
		v := t.counters[c]
		if v == 0 {
			continue
		}
		switch c {
		case CtrProcTime, CtrDeschedTime, CtrPollTime, CtrRDMAPostTime,
			CtrRDMAWireTime, CtrTCPSendTime, CtrLossDelay, CtrSpikeDelay:
			fmt.Fprintf(w, "  %-18s %v\n", CounterName(c), time.Duration(v))
		default:
			fmt.Fprintf(w, "  %-18s %d\n", CounterName(c), v)
		}
	}
}
