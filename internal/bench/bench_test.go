package bench

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// quickFig8 shrinks one load point per system for test speed.
func quickFig8(nodes, msgSize int) Fig8Config {
	return Fig8Config{
		Nodes:   nodes,
		MsgSize: msgSize,
		Windows: []int{8},
		Warmup:  2 * time.Millisecond,
		Measure: 8 * time.Millisecond,
		Seed:    1,
	}
}

func TestAllSystemsMeasurable(t *testing.T) {
	cfg := quickFig8(3, 10)
	for _, k := range AllKinds {
		k := k
		t.Run(string(k), func(t *testing.T) {
			all, _ := Figure8Parallel(cfg, []Kind{k}, 1)
			res := all[k]
			if len(res) != 1 {
				t.Fatalf("points = %d", len(res))
			}
			if res[0].Committed == 0 {
				t.Fatalf("%s committed nothing", k)
			}
			if res[0].Latency.Mean() <= 0 {
				t.Fatalf("%s has zero latency", k)
			}
		})
	}
}

func TestShapeAcuerdoBeatsDerechoLatency(t *testing.T) {
	// Paper headline: Acuerdo ~10us vs Derecho-leader >=19us at low load.
	cfg := quickFig8(3, 10)
	cfg.Windows = []int{1}
	a := RunPoint(Acuerdo, cfg, 0)
	d := RunPoint(DerechoLeader, cfg, 0)
	if a.Latency.Mean() >= d.Latency.Mean() {
		t.Fatalf("acuerdo %v !< derecho-leader %v", a.Latency.Mean(), d.Latency.Mean())
	}
	if a.Latency.Mean() > 25*time.Microsecond {
		t.Fatalf("acuerdo latency %v out of the ~10us band", a.Latency.Mean())
	}
}

func TestShapeTCPOrderOfMagnitudeSlower(t *testing.T) {
	cfg := quickFig8(3, 10)
	cfg.Windows = []int{1}
	a := RunPoint(Acuerdo, cfg, 0)
	for _, k := range []Kind{Zookeeper, Libpaxos, Etcd} {
		r := RunPoint(k, cfg, 0)
		if r.Latency.Mean() < 8*a.Latency.Mean() {
			t.Fatalf("%s latency %v not ~10x above acuerdo %v", k, r.Latency.Mean(), a.Latency.Mean())
		}
	}
}

func TestShapeAcuerdoSmallMsgBandwidth2xDerecho(t *testing.T) {
	// One write vs two per 10-byte message: ~2x throughput at saturation.
	cfg := quickFig8(3, 10)
	cfg.Windows = []int{256}
	cfg.Measure = 15 * time.Millisecond
	a := RunPoint(Acuerdo, cfg, 0)
	d := RunPoint(DerechoLeader, cfg, 0)
	ratio := a.MBPerSec / d.MBPerSec
	if ratio < 1.4 || ratio > 3.5 {
		t.Fatalf("acuerdo/derecho-leader throughput ratio = %.2f (a=%.2f d=%.2f), want ~2",
			ratio, a.MBPerSec, d.MBPerSec)
	}
}

func TestElectionBenchProducesDurations(t *testing.T) {
	cfg := DefaultElection(3)
	cfg.Rounds = 4
	if testing.Short() {
		cfg.Rounds = 2
	}
	res := ElectionBench(cfg)
	if len(res.Durations) < 2 {
		t.Fatalf("only %d elections measured", len(res.Durations))
	}
	for _, d := range res.Durations {
		if d <= 0 || d > 100*time.Millisecond {
			t.Fatalf("implausible election duration %v", d)
		}
	}
}

func TestYCSBShape(t *testing.T) {
	cfgs := []PlacementConfig{Figure9(Acuerdo, 3), Figure9(Zookeeper, 3), Figure9(Etcd, 3)}
	for i := range cfgs {
		cfgs[i].Measure = 10 * time.Millisecond
	}
	res, _ := RunPlacementSweep(cfgs, 1)
	a, z, e := res[0], res[1], res[2]
	if a.Committed == 0 || z.Committed == 0 || e.Committed == 0 {
		t.Fatalf("committed: a=%d z=%d e=%d", a.Committed, z.Committed, e.Committed)
	}
	if a.OpsPerSec < 4*z.OpsPerSec {
		t.Fatalf("acuerdo %.0f not >> zookeeper %.0f", a.OpsPerSec, z.OpsPerSec)
	}
	if z.OpsPerSec < 1.5*e.OpsPerSec {
		t.Fatalf("zookeeper %.0f not > etcd %.0f", z.OpsPerSec, e.OpsPerSec)
	}
}

// TestFigure9Golden: the committed results_figure9.txt is a checked view of
// the harness, not a hand-regenerated copy — PrintFigure9 over the twelve
// default cells reproduces it byte for byte. Under -short only the n = 3
// cells run and only their rows are compared (every column but the first is
// as wide as its header, and "zookeeper" is in both tables, so the rows
// align the same).
func TestFigure9Golden(t *testing.T) {
	golden, err := os.ReadFile("../../results_figure9.txt")
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{3, 5, 7, 9}
	if testing.Short() {
		counts = counts[:1]
		lines := strings.SplitAfter(string(golden), "\n")
		rows := lines[:2:2]
		for _, l := range lines[2:] {
			if f := strings.Fields(l); len(f) > 1 && f[1] == "3" {
				rows = append(rows, l)
			}
		}
		golden = []byte(strings.Join(rows, ""))
	}
	var cfgs []PlacementConfig
	for _, k := range YCSBSystems {
		for _, n := range counts {
			cfgs = append(cfgs, Figure9(k, n))
		}
	}
	res, _ := RunPlacementSweep(cfgs, 0)
	var got bytes.Buffer
	PrintFigure9(&got, res)
	if !bytes.Equal(got.Bytes(), golden) {
		t.Fatalf("PrintFigure9 differs from results_figure9.txt:\n--- got\n%s--- want\n%s", got.Bytes(), golden)
	}
}

// TestFigure9Replay: a Figure 9 cell replays from its seed like every other
// rung of the placement ladder — delivery sequences, trace and all.
func TestFigure9Replay(t *testing.T) {
	if err := VerifyPlacementReplay(Figure9(Acuerdo, 3), 2); err != nil {
		t.Fatal(err)
	}
}

func TestPrintersDoNotPanic(t *testing.T) {
	cfg := quickFig8(3, 10)
	res, _ := Figure8Parallel(cfg, []Kind{Acuerdo}, 1)
	PrintFigure8(io.Discard, "test", cfg, res, []Kind{Acuerdo})
	PrintTable1(io.Discard, []Table1Row{{Quiet: ElectionResult{Nodes: 3, Durations: []time.Duration{time.Millisecond}}}})
	PrintFigure9(io.Discard, []PlacementResult{{System: "acuerdo", Config: Figure9(Acuerdo, 3)}})
}

// TestParseKinds: the one reading of every command's system list.
func TestParseKinds(t *testing.T) {
	if got, err := ParseKinds("", YCSBSystems); err != nil || len(got) != len(YCSBSystems) {
		t.Fatalf("empty list: %v, %v; want the default", got, err)
	}
	got, err := ParseKinds("apus, etcd", nil)
	if err != nil || len(got) != 2 || got[0] != Apus || got[1] != Etcd {
		t.Fatalf("apus, etcd: %v, %v", got, err)
	}
	if _, err := ParseKinds("acuerdo,nosuch", AllKinds); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("unknown name accepted: %v", err)
	}
}
