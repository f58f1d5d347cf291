package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteChrome serializes the ring contents in Chrome trace_event JSON
// ("JSON object format"), loadable by chrome://tracing and Perfetto.
//
// Mapping: one process (pid 0); tid 0 is the simulator core and tid n+1 is
// node n (named via SetThreadName). Events with a duration become complete
// spans (ph "X"); instantaneous events become thread-scoped instants
// (ph "i"). Counters are appended as ph "C" samples at the last event
// timestamp. Timestamps and durations convert from simulated nanoseconds
// to the format's microseconds with 1 ns resolution (3 decimal places), so
// output is byte-stable for a fixed seed — the golden-file test depends on
// that.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	if t != nil {
		// Thread-name metadata, sorted by node id for determinism.
		nodes := make([]int32, 0, len(t.names))
		for n := range t.names {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		sep()
		fmt.Fprintf(bw, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"sim\"}}")
		for _, n := range nodes {
			sep()
			fmt.Fprintf(bw, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":%s}}",
				chromeTid(n), strconv.Quote(fmt.Sprintf("%s %d", t.names[n], n)))
		}

		// An event's Chrome category is the layer prefix of its kind's name.
		var cats [numKinds]string
		for k, name := range kindNames {
			cats[k], _, _ = strings.Cut(name, ".")
		}
		var lastTS int64
		for i := 0; i < t.n; i++ {
			ev := t.ring[(t.start+i)%len(t.ring)]
			if end := ev.TS + ev.Dur; end > lastTS {
				lastTS = end
			}
			sep()
			if ev.Dur > 0 {
				fmt.Fprintf(bw, "{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":0,\"tid\":%d,\"args\":{\"a\":%d,\"b\":%d}}",
					KindName(ev.Kind), cats[ev.Kind], us(ev.TS), us(ev.Dur), chromeTid(ev.Node), ev.A, ev.B)
			} else {
				fmt.Fprintf(bw, "{\"name\":%q,\"cat\":%q,\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":0,\"tid\":%d,\"args\":{\"a\":%d,\"b\":%d}}",
					KindName(ev.Kind), cats[ev.Kind], us(ev.TS), chromeTid(ev.Node), ev.A, ev.B)
			}
		}
		for c := Counter(0); c < numCounters; c++ {
			if t.counters[c] == 0 {
				continue
			}
			sep()
			fmt.Fprintf(bw, "{\"name\":%q,\"ph\":\"C\",\"ts\":%s,\"pid\":0,\"args\":{\"value\":%d}}",
				CounterName(c), us(lastTS), t.counters[c])
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

// chromeTid maps node ids onto Chrome thread ids: the simulator core
// (node -1) is tid 0, node n is tid n+1.
func chromeTid(node int32) int32 { return node + 1 }

// us renders simulated nanoseconds as the trace format's microseconds,
// with fixed 3-decimal precision for byte stability.
func us(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}
