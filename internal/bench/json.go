// JSON artifacts: every harness can write its results as a machine-readable
// file (the committed ones are the BENCH_*.json at the repo root) so
// behaviour has a trajectory across commits; Compare (compare.go) turns two
// of them into a pass/fail verdict for CI.
//
// There is one envelope, Artifact, for every kind of run; a kind contributes
// only the point struct its Points carry and an Add method that fills it.
// Writing, reading, comparing and cmd/bench-compare work on the JSON tree.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"acuerdo/internal/abcast"
	"acuerdo/internal/metrics"
)

// LatencyJSON is a latency histogram summary in nanoseconds of simulated
// time. All fields are deterministic.
type LatencyJSON struct {
	// MeanNS through MaxNS summarize the per-message commit latency
	// distribution of one load point.
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	MaxNS  int64 `json:"max_ns"`
}

func latencyJSON(h *metrics.Histogram) LatencyJSON {
	s := h.Export()
	return LatencyJSON{
		MeanNS: int64(s.Mean), P50NS: int64(s.P50), P90NS: int64(s.P90),
		P99NS: int64(s.P99), P999NS: int64(s.P999), MaxNS: int64(s.Max),
	}
}

// PointJSON is one grid point of a sweep: one (system, nodes, payload,
// window, seed) cell with its measured results, every field deterministic.
type PointJSON struct {
	// System, Nodes, MsgSize, Window, and Seed identify the grid cell.
	System  string `json:"system"`
	Nodes   int    `json:"nodes"`
	MsgSize int    `json:"msg_size"`
	Window  int    `json:"window"`
	Seed    int64  `json:"seed"`
	// Committed is the number of acknowledged messages in the measurement
	// window; ElapsedNS is that window's simulated length (it can exceed
	// the configured Measure when the adaptive extension kicked in).
	Committed int   `json:"committed"`
	ElapsedNS int64 `json:"elapsed_sim_ns"`
	// MBPerSec and MsgsPerSec are the point's saturation throughput.
	MBPerSec   float64 `json:"mb_per_sec"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// Latency summarizes the commit-latency distribution.
	Latency LatencyJSON `json:"latency"`
	// TraceFP is the run's trace fingerprint as 16 hex digits, present only
	// when the sweep ran with tracing; TraceEvents is how many events the
	// tracer observed.
	TraceFP     string `json:"trace_fp,omitempty"`
	TraceEvents uint64 `json:"trace_events,omitempty"`
}

// Artifact is the one envelope every bench artifact is written in:
// identification, host metadata, and the deterministic points.
type Artifact struct {
	// Name identifies the run ("figure8", "chaos-short", "placement", ...).
	Name string `json:"name"`
	// Kind says which point struct Points carry: "chaos", "placement",
	// "closed-loop" (a replay oracle run, never written to a file), or
	// absent for a sweep (sweep files predate the field). Two artifacts of
	// different kinds never compare equal.
	Kind string `json:"kind,omitempty"`
	// GoMaxProcs, Workers, WallNS, Allocs, and AllocBytes are host
	// metadata: the pool size the run used, its total wall-clock time, and
	// the heap objects/bytes it allocated (zero = not recorded).
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers,omitempty"`
	WallNS     int64  `json:"wall_ns"`
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Points holds the results in run order: point structs in an artifact
	// being built, decoded JSON objects in one returned by ReadArtifact.
	Points []any `json:"points"`
}

// NewArtifact creates an empty artifact of the given name and kind,
// stamping the host's GOMAXPROCS.
func NewArtifact(name, kind string) *Artifact {
	return &Artifact{Name: name, Kind: kind, GoMaxProcs: runtime.GOMAXPROCS(0)}
}

// WriteFile writes the artifact as indented JSON (byte-stable given the
// same contents: encoding/json orders struct fields by declaration).
func (a *Artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadArtifact parses an artifact of any kind previously written by
// WriteFile.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := decodeJSON(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// pointJSON renders one measured load point of a nodes-replica system whose
// simulator was seeded with seed.
func pointJSON(r *abcast.LoadResult, nodes int, seed int64) PointJSON {
	p := PointJSON{
		System:     r.System,
		Nodes:      nodes,
		MsgSize:    r.MsgSize,
		Window:     r.Window,
		Seed:       seed,
		Committed:  r.Committed,
		ElapsedNS:  int64(r.Elapsed),
		MBPerSec:   r.MBPerSec,
		MsgsPerSec: r.MsgsPerSec,
		Latency:    latencyJSON(&r.Latency),
	}
	if r.Trace != nil {
		p.TraceFP = r.Trace.Fingerprint().Hex()
		p.TraceEvents = r.Trace.Emitted()
	}
	return p
}

// AddFigure8 appends one subfigure's results in deterministic grid order
// (kinds outer, windows inner — the same order the tables print in).
func (a *Artifact) AddFigure8(cfg Fig8Config, results map[Kind][]abcast.LoadResult, kinds []Kind) {
	if kinds == nil {
		kinds = AllKinds
	}
	for _, k := range kinds {
		for i := range results[k] {
			a.Points = append(a.Points, pointJSON(&results[k][i], cfg.Nodes, cfg.Seed+int64(i)))
		}
	}
}

// ChaosPointJSON is one (system, scenario) cell of a chaos artifact. Every
// field is deterministic: the whole row is a pure function of the seed.
type ChaosPointJSON struct {
	// System, Scenario, Nodes, and Seed identify the cell.
	System   string `json:"system"`
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	Seed     int64  `json:"seed"`
	// Acks is the client-visible commit count over the whole run; Fired is
	// how many fault actions the engine applied.
	Acks  int `json:"acks"`
	Fired int `json:"fired"`
	// Recovered of Measured disruptive faults recovered; the MTTR fields
	// summarize their client-visible recovery times.
	Recovered  int   `json:"recovered"`
	Measured   int   `json:"measured"`
	MTTRMeanNS int64 `json:"mttr_mean_ns"`
	MTTRMaxNS  int64 `json:"mttr_max_ns"`
	// UnavailNS totals the client-visible unavailability windows.
	UnavailNS int64 `json:"unavail_ns"`
	// Wedged reports whether the no-progress watchdog stopped the run.
	Wedged bool `json:"wedged"`
	// Safety carries the first atomic-broadcast safety violation ("" = ok).
	Safety string `json:"safety,omitempty"`
	// Fingerprint is the trace hash as 16 hex digits.
	Fingerprint string `json:"fingerprint"`
	// Violations, ViolationReports, ObserveChecks, and ObserveDigest carry
	// the runtime invariant observer's verdict when the run was observed.
	Violations       int64    `json:"violations"`
	ViolationReports []string `json:"violation_reports,omitempty"`
	ObserveChecks    uint64   `json:"observe_checks,omitempty"`
	ObserveDigest    string   `json:"observe_digest,omitempty"`
	// Durability names the storage model ("durable", "amnesia"; absent =
	// volatile). DiskRecoveredBytes and FabricRecoveryBytes split how
	// crash-lost state was refilled; DurableDigest is the folded device
	// digest (deterministic per seed) as 16 hex digits.
	Durability          string `json:"durability,omitempty"`
	DiskRecoveredBytes  int64  `json:"disk_recovered_bytes,omitempty"`
	FabricRecoveryBytes int64  `json:"fabric_recovery_bytes,omitempty"`
	DurableDigest       string `json:"durable_digest,omitempty"`
}

// AddChaos appends one scenario's cross-system results in run order.
func (a *Artifact) AddChaos(cfg ChaosConfig, results []ChaosResult) {
	for _, r := range results {
		mean, n := r.MeanMTTR()
		p := ChaosPointJSON{
			System:           string(r.Kind),
			Scenario:         r.Plan,
			Nodes:            cfg.Nodes,
			Seed:             cfg.Seed,
			Acks:             r.Acks,
			Fired:            len(r.Fired),
			Recovered:        n,
			Measured:         len(r.Recoveries),
			MTTRMeanNS:       int64(mean),
			MTTRMaxNS:        int64(r.MaxMTTR()),
			UnavailNS:        int64(r.Unavail),
			Wedged:           r.Watchdog != nil,
			Fingerprint:      r.Fingerprint.Hex(),
			Violations:       r.Violations,
			ViolationReports: r.ViolationReports,
			ObserveChecks:    r.ObserveChecks,
		}
		if r.SafetyErr != nil {
			p.Safety = r.SafetyErr.Error()
		}
		if r.ObserveChecks > 0 {
			p.ObserveDigest = r.ObserveDigest.Hex()
		}
		if r.Durability != Volatile {
			p.Durability = string(r.Durability)
			p.DiskRecoveredBytes = r.DiskRecoveredBytes
			p.FabricRecoveryBytes = r.FabricRecoveryBytes
			p.DurableDigest = r.DurableDigest.Hex()
		}
		a.Points = append(a.Points, p)
	}
}

// PlacementPGJSON is one group's share of a scale-out point. Every field
// is deterministic.
type PlacementPGJSON struct {
	// PG, Leader, and Members echo the group's slot in the placement map.
	PG      int   `json:"pg"`
	Leader  int   `json:"leader"`
	Members []int `json:"members"`
	// Committed and OpsPerSec are the group's measured YCSB throughput.
	Committed int     `json:"committed"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// DeliveryFP folds the group's per-replica delivery sequences.
	DeliveryFP string `json:"delivery_fp"`
	// Violations and ObserveDigest carry the group's observer verdict when
	// the run was observed.
	Violations    int64  `json:"violations"`
	ObserveChecks uint64 `json:"observe_checks,omitempty"`
	ObserveDigest string `json:"observe_digest,omitempty"`
}

// PlacementPointJSON is one scale-out point: one (system, PG count) cell
// with its per-group shares, every field deterministic.
type PlacementPointJSON struct {
	// System through Seed identify the cell.
	System      string `json:"system"`
	PGs         int    `json:"pgs"`
	PGSize      int    `json:"pg_size"`
	Fleet       int    `json:"fleet"`
	Domains     int    `json:"domains"`
	Seed        int64  `json:"seed"`
	WindowPerPG int    `json:"window_per_pg"`
	// Committed and AggOpsPerSec are the figure's y-axis: every group's
	// measured load summed; ElapsedNS the measured simulated interval.
	Committed    int     `json:"committed"`
	AggOpsPerSec float64 `json:"agg_ops_per_sec"`
	ElapsedNS    int64   `json:"elapsed_sim_ns"`
	// Latency summarizes the merged commit-latency distribution.
	Latency LatencyJSON `json:"latency"`
	// MapFP is the placement map's digest, TraceFP the shared simulation's
	// event-stream digest, and Fingerprint the folded seed-replay digest.
	MapFP       string `json:"map_fp"`
	TraceFP     string `json:"trace_fp"`
	Fingerprint string `json:"fingerprint"`
	// Groups holds the per-group shares, in PG-ID order.
	Groups []PlacementPGJSON `json:"groups"`
}

// AddPlacement appends one scale-out point.
func (a *Artifact) AddPlacement(r *PlacementResult) {
	c := r.Config.Placement
	p := PlacementPointJSON{
		System:       r.System,
		PGs:          c.PGs,
		PGSize:       c.PGSize,
		Fleet:        c.Fleet,
		Domains:      c.Domains,
		Seed:         r.Config.Seed,
		WindowPerPG:  r.Config.WindowPerPG,
		Committed:    r.Committed,
		AggOpsPerSec: r.OpsPerSec,
		ElapsedNS:    int64(r.Elapsed),
		Latency:      latencyJSON(&r.Latency),
		MapFP:        r.MapFP.Hex(),
		TraceFP:      r.TraceFP.Hex(),
		Fingerprint:  r.Fingerprint.Hex(),
	}
	for i := range r.Groups {
		g := &r.Groups[i]
		gj := PlacementPGJSON{
			PG:            g.PG,
			Leader:        g.Leader,
			Members:       append([]int(nil), g.Members...),
			Committed:     g.Committed,
			OpsPerSec:     g.OpsPerSec,
			DeliveryFP:    g.DeliveryFP.Hex(),
			Violations:    g.Violations,
			ObserveChecks: g.ObserveChecks,
		}
		if g.ObserveChecks > 0 {
			gj.ObserveDigest = g.ObserveDigest.Hex()
		}
		p.Groups = append(p.Groups, gj)
	}
	a.Points = append(a.Points, p)
}
