package bench

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// eachLeaf calls f for every scalar under v with its JSON path, the object
// key it sits under (array elements inherit their array's key), and a setter
// that replaces it — or, given nil, drops it.
func eachLeaf(path, key string, v any, set func(any), f func(path, key string, old any, set func(any))) {
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			eachLeaf(strings.TrimPrefix(path+"."+k, "."), k, v[k], func(n any) {
				if v[k] = n; n == nil {
					delete(v, k)
				}
			}, f)
		}
	case []any:
		for i := range v {
			eachLeaf(fmt.Sprintf("%s[%d]", path, i), key, v[i], func(n any) { v[i] = n }, f)
		}
	default:
		f(path, key, v, set)
	}
}

// sameChaosRun fails t unless a and b match as artifact points.
func sameChaosRun(t *testing.T, cfg ChaosConfig, a, b ChaosResult) {
	t.Helper()
	x, y := NewArtifact("a", "chaos"), NewArtifact("b", "chaos")
	x.AddChaos(cfg, []ChaosResult{a})
	y.AddChaos(cfg, []ChaosResult{b})
	if err := Compare(x, y, -1); err != nil {
		t.Fatalf("runs diverged: %v", err)
	}
}

// TestCompare checks the comparator leaf by leaf over every committed
// baseline and a freshly written artifact of each kind (so the Add methods
// and the write/read pair are under test too): a changed or dropped
// deterministic field fails and is named by path, host fields never matter,
// optional fields may be missing on one side, and the envelope's kind, point
// count and wall-clock are held as documented.
func TestCompare(t *testing.T) {
	host := map[string]bool{"name": true, "gomaxprocs": true, "workers": true, "wall_ns": true, "allocs": true, "alloc_bytes": true}
	optional := map[string]bool{"trace_fp": true, "trace_events": true, "observe_checks": true, "observe_digest": true}

	dir := t.TempDir()
	fresh := func(name, kind string, add func(*Artifact)) string {
		a := NewArtifact(name, kind)
		a.WallNS = 12345
		add(a)
		path := filepath.Join(dir, name+".json")
		if err := a.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		path, kind string
		points     int    // 0 = whatever the committed file holds
		carries    string // keys point 0 must carry
	}{
		{path: "../../BENCH_baseline.json", carries: "trace_fp"},
		{path: "../../BENCH_figure8.json", carries: "trace_fp"},
		{path: "../../BENCH_chaos.json", kind: "chaos", carries: "fingerprint observe_digest"},
		{path: "../../BENCH_placement.json", kind: "placement", carries: "map_fp trace_fp fingerprint groups"},
		{path: fresh("sweep", "", func(a *Artifact) {
			kinds := []Kind{Acuerdo, Etcd}
			results, _ := Figure8Parallel(smallFig8(), kinds, 2)
			a.AddFigure8(smallFig8(), results, kinds)
		}), points: 4, carries: "trace_fp trace_events"},
		{path: fresh("chaos", "chaos", func(a *Artifact) {
			cfg := observedChaos(5)
			cfg.Durability = Durable
			a.AddChaos(cfg, []ChaosResult{RunScenario(Acuerdo, storm(), cfg), RunScenario(Etcd, storm(), cfg)})
		}), kind: "chaos", points: 2, carries: "fingerprint observe_digest observe_checks durability durable_digest"},
		{path: fresh("placement", "placement", func(a *Artifact) {
			r := RunPlacementYCSB(shortPlacement(Acuerdo, 2))
			a.AddPlacement(&r)
		}), kind: "placement", points: 1, carries: "map_fp trace_fp fingerprint groups"},
	}
	for _, tc := range cases {
		t.Run(filepath.Base(tc.path), func(t *testing.T) {
			base, err := ReadArtifact(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			cur, _ := ReadArtifact(tc.path) // a second, independent tree to mutate
			if base.Kind != tc.kind || len(base.Points) == 0 || (tc.points > 0 && len(base.Points) != tc.points) {
				t.Fatalf("read kind %q with %d points, want kind %q with %d", base.Kind, len(base.Points), tc.kind, tc.points)
			}
			for _, k := range strings.Fields(tc.carries) {
				if _, ok := base.Points[0].(map[string]any)[k]; !ok {
					t.Errorf("point 0 carries no %q", k)
				}
			}
			if err := Compare(base, cur, 0); err != nil {
				t.Fatalf("self-compare: %v", err)
			}

			env := *cur
			env.Name, env.GoMaxProcs, env.Workers, env.Allocs, env.AllocBytes = "other", 99, 99, 1, 1
			env.WallNS = 2*base.WallNS + 1
			if err := Compare(base, &env, -1); err != nil {
				t.Errorf("host metadata compared: %v", err)
			}
			if Compare(base, &env, 0.10) == nil {
				t.Error("2x wall-clock accepted at 10% tolerance")
			}
			env = *cur
			env.Kind += "x"
			if Compare(base, &env, -1) == nil {
				t.Error("kind mismatch accepted")
			}
			env = *cur
			env.Points = env.Points[1:]
			if Compare(base, &env, -1) == nil {
				t.Error("missing point accepted")
			}

			// Every leaf of every point, one point at a time (a whole-file
			// Compare per leaf would make this quadratic).
			for i := range base.Points {
				b1, c1 := *base, *cur
				b1.Points, c1.Points = base.Points[i:i+1], cur.Points[i:i+1]
				eachLeaf("", "", c1.Points[0], nil, func(path, key string, old any, set func(any)) {
					mutated := any(!(old == true))
					switch v := old.(type) {
					case string:
						mutated = v + "x"
					case json.Number:
						mutated = json.Number("7" + strings.TrimPrefix(string(v), "-"))
					}
					for _, step := range []struct {
						what string
						v    any
						ok   bool
					}{{"changed", mutated, host[key]}, {"dropped", nil, host[key] || optional[key]}} {
						set(step.v)
						err := Compare(&b1, &c1, -1)
						if step.ok && err != nil {
							t.Errorf("point %d: %s %s: %v", i, step.what, path, err)
						}
						if !step.ok && (err == nil || !strings.Contains(err.Error(), "point 0 (") || !strings.Contains(err.Error(), path)) {
							t.Errorf("point %d: %s %s: got %v, want an error naming the point and the path", i, step.what, path, err)
						}
					}
					set(old)
				})
			}
		})
	}
}
