package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one benchmark-side interval: a phase of a rep (build, elect,
// warmup, measure, verify), a whole rep, a pass, or one kernel loop. Spans
// are recorded from the benchmark's own files around the calls into the
// layers; spans inside the program are a later change (ROADMAP item 1).
type span struct {
	id, parent int // parent is -1 for a root span
	name       string
	start, end time.Time
}

// spanLog keeps every span of one workload run in memory and writes them
// out once, at exit, so recording never touches the disk while a rep is
// being timed.
type spanLog struct {
	workload string
	spans    []span
	open     []int // stack of enclosing span ids
}

// push opens a span under the innermost open one; the returned func closes
// it and reports its duration.
func (l *spanLog) push(name string) (pop func() time.Duration) {
	id := len(l.spans)
	l.spans = append(l.spans, span{id: id, parent: l.parent(), name: name, start: time.Now()})
	l.open = append(l.open, id)
	return func() time.Duration {
		s := &l.spans[id]
		s.end = time.Now()
		l.open = l.open[:len(l.open)-1]
		return s.end.Sub(s.start)
	}
}

// add records a span whose boundaries were observed elsewhere (the phase
// probe's marker events fire inside the harness's own RunFor calls).
func (l *spanLog) add(name string, start, end time.Time) time.Duration {
	l.spans = append(l.spans, span{id: len(l.spans), parent: l.parent(), name: name, start: start, end: end})
	return end.Sub(start)
}

func (l *spanLog) parent() int {
	if len(l.open) == 0 {
		return -1
	}
	return l.open[len(l.open)-1]
}

// selfTime is a span's duration minus the part its children cover.
func (l *spanLog) selfTime(id int) time.Duration {
	s := l.spans[id]
	d := s.end.Sub(s.start)
	for _, c := range l.spans {
		if c.parent == id {
			d -= c.end.Sub(c.start)
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps relative to the first span), loadable in
// Perfetto or chrome://tracing. Nesting shows there as stacking on one
// track; id/parent/workload ride in args for scripts.
func (l *spanLog) writeChrome(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	out := struct {
		TraceEvents []ev `json:"traceEvents"`
	}{TraceEvents: []ev{}}
	for _, s := range l.spans {
		out.TraceEvents = append(out.TraceEvents, ev{
			Name: s.name, Cat: l.workload, Ph: "X",
			TS:  float64(s.start.Sub(l.spans[0].start)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{
				"id": s.id, "parent": s.parent, "workload": l.workload,
				"self_us": float64(l.selfTime(s.id)) / 1e3,
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
