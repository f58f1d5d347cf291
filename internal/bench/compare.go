package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"
)

// The field classes of the one artifact comparator, by JSON key at any depth.
// Compare walks artifacts as decoded JSON trees and knows no point struct, so
// this table is the only place a field's treatment is decided; a key in
// neither set is deterministic — a pure function of the seed — and must match
// exactly, presence included (an absent "durability" is the volatile model,
// so absent versus "durable" is a mismatch).
var (
	// hostFields describe the machine and the run, not the simulation, and
	// are never compared (the envelope's wall_ns is held to wallTol instead).
	hostFields = map[string]bool{
		"name": true, "gomaxprocs": true, "workers": true,
		"wall_ns": true, "allocs": true, "alloc_bytes": true,
	}
	// optionalFields are deterministic but exist only under -fp/-observe, so
	// they are compared when both sides carry them: a traced run can still
	// be checked against an untraced baseline.
	optionalFields = map[string]bool{
		"trace_fp": true, "trace_events": true,
		"observe_checks": true, "observe_digest": true,
	}
	// identityFields label a point in a mismatch report.
	identityFields = []string{"system", "scenario", "nodes", "msg_size", "window", "pgs"}
)

// Compare checks cur against base and returns a non-nil error naming the
// first difference: the point's identity, the JSON path, the value, and the
// baseline's value. A mismatch means the simulation's behaviour changed —
// either a bug or a change that must regenerate the committed baseline.
//
// Wall-clock is compared only when wallTol >= 0: cur.WallNS may exceed
// base.WallNS by at most that fraction (0.10 = +10%). Pass a negative
// wallTol when the two artifacts come from different machines.
func Compare(base, cur *Artifact, wallTol float64) error {
	b, bp, err := tree(base)
	if err != nil {
		return err
	}
	c, cp, err := tree(cur)
	if err != nil {
		return err
	}
	if err := diff("", b, c); err != nil {
		return err
	}
	if len(cp) != len(bp) {
		return fmt.Errorf("%d points, baseline has %d", len(cp), len(bp))
	}
	for i := range bp {
		if err := diff("", bp[i], cp[i]); err != nil {
			var id []string
			for _, k := range identityFields {
				if v, ok := bp[i].(map[string]any)[k]; ok {
					id = append(id, fmt.Sprintf("%s=%v", k, v))
				}
			}
			return fmt.Errorf("point %d (%s): %w", i, strings.Join(id, " "), err)
		}
	}
	if wallTol >= 0 && base.WallNS > 0 {
		limit := int64(float64(base.WallNS) * (1 + wallTol))
		if cur.WallNS > limit {
			return fmt.Errorf("wall-clock %v exceeds baseline %v by more than %.0f%%",
				time.Duration(cur.WallNS), time.Duration(base.WallNS), wallTol*100)
		}
	}
	return nil
}

// tree renders a as the JSON tree a reader of its file would see, the
// envelope and its points apart.
func tree(a *Artifact) (env map[string]any, points []any, err error) {
	data, err := json.Marshal(a)
	if err == nil {
		err = decodeJSON(data, &env)
	}
	points, _ = env["points"].([]any)
	delete(env, "points")
	return env, points, err
}

// decodeJSON keeps numbers as their literal text (json.Number), so 64-bit
// counters compare exactly.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// diff reports the first difference between the subtrees b (baseline) and c
// at path, honouring the field classes.
func diff(path string, b, c any) error {
	switch b := b.(type) {
	case map[string]any:
		c, ok := c.(map[string]any)
		if !ok {
			break
		}
		for _, k := range keysOf(b, c) {
			_, inB := b[k]
			_, inC := c[k]
			if hostFields[k] || (inB != inC && optionalFields[k]) {
				continue
			}
			// A key one side lacks reads as nil there, which equals nothing.
			if err := diff(strings.TrimPrefix(path+"."+k, "."), b[k], c[k]); err != nil {
				return err
			}
		}
		return nil
	case []any:
		c, ok := c.([]any)
		if !ok {
			break
		}
		if len(c) != len(b) {
			return fmt.Errorf("%s has %d elements, baseline %d", path, len(c), len(b))
		}
		for i := range b {
			if err := diff(fmt.Sprintf("%s[%d]", path, i), b[i], c[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if b != c {
		return fmt.Errorf("%s is %s, baseline %s", path, show(c), show(b))
	}
	return nil
}

// keysOf returns the sorted union of both objects' keys, so the first
// difference reported does not depend on map order.
func keysOf(b, c map[string]any) []string {
	keys := slices.Collect(maps.Keys(b))
	for k := range c {
		if _, ok := b[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// show renders one side of a mismatch.
func show(v any) string {
	if v == nil {
		return "absent"
	}
	data, _ := json.Marshal(v) // v came out of a JSON decoder
	return string(data)
}
