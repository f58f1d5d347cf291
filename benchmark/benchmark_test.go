package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's own tables
// in step: every workload and metric the file names is one the program
// emits, with the same unit, direction and bound, and vice versa.
func TestSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has a key the contract does not allow: %q", k)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(what string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(file), len(prog))
			return
		}
		for i, d := range prog {
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", what, i, f, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: name %q or unit %q is outside the contract's alphabet", what, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("%s: name %q is used twice", what, d.Name)
			}
			seen[d.Name] = true
			if d.Clock != "sim" && d.Clock != "host" {
				t.Errorf("%s: %s names no clock", what, d.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if last := endToEnd[len(endToEnd)-1]; last.Name != "setup_s" || last.Unit != "s" || last.Better != "lower" {
		t.Errorf("the contract requires setup_s [s, lower]; have %+v", last)
	}
}

// quickRun runs both passes of one workload in the -quick configuration and
// returns what -json wrote.
func quickRun(t *testing.T, workload, seed string) *workloadResult {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	args := []string{"-quick", "-workload", workload, "-seed", seed, "-json", path, "-out", dir}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d:\n%s%s", args, code, stdout.String(), stderr.String())
	}
	f, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	return f.Workloads[workload]
}

func namesOf(defs []metricDef) map[string]bool {
	m := map[string]bool{}
	for _, d := range defs {
		m[d.Name] = true
	}
	return m
}

func emitted(p *passResult) map[string]bool {
	m := map[string]bool{}
	for n := range p.Metrics {
		m[n] = true
	}
	return m
}

// TestQuick runs every workload shortened tenfold and checks the promises
// the full benchmark makes: every named metric is emitted and nothing else,
// simulated metrics repeat exactly, another seed passes the correctness
// gate too, the stage decomposition telescopes, and the traced pass leaves
// a parseable span file.
func TestQuick(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name != "acuerdo-lat" && w.name != "failover-durable" {
				t.Skip("-short runs the cheapest fault-free and the fault workload only")
			}
			a := quickRun(t, w.name, "1")
			if !a.EndToEnd.Correct || !a.PerLayer.Correct {
				t.Fatalf("seed 1 failed the correctness gate: %+v %+v", a.EndToEnd, a.PerLayer)
			}
			if a.EndToEnd.Attempted < 1 || a.EndToEnd.Failed != 0 {
				t.Errorf("attempted=%d failed=%d", a.EndToEnd.Attempted, a.EndToEnd.Failed)
			}
			if got, want := emitted(a.EndToEnd), namesOf(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end pass emitted %v, BENCHMARK.json names %v", got, want)
			}
			if got, want := emitted(a.PerLayer), namesOf(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("per-layer pass emitted %v, BENCHMARK.json names %v", got, want)
			}
			for n, s := range a.EndToEnd.Metrics {
				if s.Value <= 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", n, s.Value)
				}
			}

			if m := a.PerLayer.Metrics; m["abcast.stage_post_us"].Value > 0 {
				sum := m["abcast.stage_post_us"].Value + m["abcast.stage_wire_us"].Value +
					m["abcast.stage_proto_us"].Value + m["abcast.stage_ack_us"].Value
				mean := a.EndToEnd.Metrics["commit_mean_us"].Value
				// Under faults the decomposition covers complete marker
				// chains only; the run itself checks it against their mean.
				if w.name != "failover-durable" && math.Abs(sum-mean) > 0.01*mean {
					t.Errorf("abcast.stage_* sum to %v us, commit_mean_us is %v", sum, mean)
				}
			} else if w.name != "placement-16pg" {
				t.Errorf("no stage decomposition")
			}

			if testing.Short() {
				return
			}
			b := quickRun(t, w.name, "1")
			for _, pass := range []struct {
				name string
				a, b *passResult
			}{{"end_to_end", a.EndToEnd, b.EndToEnd}, {"per_layer", a.PerLayer, b.PerLayer}} {
				for n, sa := range pass.a.Metrics {
					if sb := pass.b.Metrics[n]; sa.Clock == "sim" && sa.Value != sb.Value {
						t.Errorf("%s %s is on the simulated clock but read %v then %v", pass.name, n, sa.Value, sb.Value)
					}
				}
			}
			c := quickRun(t, w.name, "2")
			if !c.EndToEnd.Correct || !c.PerLayer.Correct {
				t.Errorf("seed 2 failed the correctness gate")
			}
		})
	}
}

// TestDriverLine checks the line the driver parses: last on stdout, exactly
// the four keys, each metric exactly {value, unit}; and that the traced
// pass leaves a span file a strict JSON parser accepts.
func TestDriverLine(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "--workload", "acuerdo-lat", "--seed", "3", "--seconds", "1", "--trace", mode.trace, "-out", dir}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last stdout line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 {
			t.Errorf("driver line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(mode.defs) {
			t.Errorf("--trace %s: %d metrics, want %d", mode.trace, len(metrics), len(mode.defs))
		}
		for _, d := range mode.defs {
			m, ok := metrics[d.Name]
			if !ok || len(m) != 2 || m["unit"] != d.Unit {
				t.Errorf("--trace %s: metric %s = %v, want {value, unit:%s}", mode.trace, d.Name, m, d.Unit)
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "acuerdo-lat.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	have := map[string]bool{}
	for _, e := range spans.TraceEvents {
		have[e.Name] = true
		if e.Ph != "X" || e.Args["workload"] != "acuerdo-lat" {
			t.Errorf("span %+v: want a complete event tagged with its workload", e)
		}
	}
	for _, want := range []string{"build", "elect", "warmup", "measure", "verify"} {
		if !have[want] {
			t.Errorf("span file has no %q span", want)
		}
	}
}

func durations(ns ...int) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = time.Duration(n)
	}
	return out
}

// TestQuantile pins the interpolated-ECDF quantile on a tied sample and on
// a tie-free one.
func TestQuantile(t *testing.T) {
	tied := durations(100, 100, 200, 200, 200, 200, 300, 300)
	// Half the mass (4 of 8) is reached two samples into the four at 200,
	// so the median sits halfway from 100 to 200.
	if got := quantile(tied, 0.5); got != 150 {
		t.Errorf("tied median = %v, want 150", got)
	}
	if got := quantile(durations(10, 20, 30, 40), 0.5); got != 20 {
		t.Errorf("tie-free median = %v, want 20", got)
	}
	if q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want Python's 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestCompareRule pins the four verdicts.
func TestCompareRule(t *testing.T) {
	host := metricDef{Name: "host_us_per_commit", Better: "lower", Bound: 0.10}
	sim := metricDef{Name: "commit_rate_kops", Better: "higher", Bound: 0.01}
	a := stat{Value: 100, Clock: "host", Q1: 99, Q3: 101, N: 7}
	single := stat{Value: 100, Clock: "host"} // peak RSS: one reading, no quartiles
	for _, c := range []struct {
		d    metricDef
		a, b stat
		want string
	}{
		{host, a, stat{Value: 104}, unchanged},
		{host, a, stat{Value: 111}, regressed},
		{host, a, stat{Value: 95}, improved},
		{host, stat{Value: 100, Clock: "host", Q1: 80, Q3: 110, N: 7}, stat{Value: 130}, unresolved},
		{host, single, stat{Value: 95}, unchanged},
		{host, single, stat{Value: 85}, improved},
		{sim, stat{Value: 100, Clock: "sim"}, stat{Value: 100}, unchanged},
		{sim, stat{Value: 100, Clock: "sim"}, stat{Value: 100.001}, improved},
		{sim, stat{Value: 100, Clock: "sim"}, stat{Value: 98}, regressed},
	} {
		if got, _ := judgeMetric(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
