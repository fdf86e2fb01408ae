// Content addressing for job results. A simulation is a pure function
// of its normalized spec (PR 5–7 pinned this byte-for-byte), so a
// completed job's output can be stored and served under a stable hash of
// everything that determines it — and ONLY that. Knobs that change how a
// result is computed but not what it is (the checkpoint cadence) and the
// accepted, inert "partitions"/"lookahead" keys are excluded, so
// resubmissions that differ only in those hit the cache; the spec echoed inside a served result is
// patched back to the submission's own, keeping every body byte-identical
// to a fresh run of exactly that submission.
package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"chipletnoc/internal/experiments"
	"chipletnoc/internal/sim"
)

// cacheFormatVersion is folded into every job key. Bump it whenever the
// CachedResult encoding or the rendered result formats change shape, so
// a new daemon never deserializes (or byte-compares against) artifacts
// written by an incompatible one — old entries simply age out as misses.
const cacheFormatVersion = 1

// jobIdentity is the canonical document a job key hashes: a fixed-order
// JSON rendering of the result-determining fields plus the codec
// versions. Field order is fixed by the struct, map-free, so marshaling
// is deterministic.
type jobIdentity struct {
	Format   int    `json:"format"`
	Snapshot int    `json:"snapshot_version"`
	Kind     string `json:"kind"`
	// Sim-job identity. CheckpointEvery is deliberately absent: it is
	// proven behaviour-neutral (the differential suites of PR 5–7), so it
	// must not split the cache.
	Topology        string `json:"topology,omitempty"`
	Scale           string `json:"scale,omitempty"`
	Cycles          uint64 `json:"cycles,omitempty"`
	Seed            uint64 `json:"seed,omitempty"`
	MetricsInterval uint64 `json:"metrics_interval,omitempty"`
	Config          string `json:"config,omitempty"`
	// Experiment-job identity.
	Experiment string `json:"experiment,omitempty"`
	// Serving-job identity: the canonical serving document minus the
	// inert partitions/lookahead keys. Scale is absent on
	// purpose — the document arrives fully defaulted, so scale no longer
	// influences the result.
	Serving string `json:"serving,omitempty"`
}

// JobKey returns the content address of a job's result: a hex SHA-256
// over the canonical identity document. The spec is (re-)normalized
// first, so semantically equal submissions — different JSON key orders,
// defaulted vs explicit fields, identity-excluded knobs — share one key.
func JobKey(spec JobSpec) (string, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return "", err
	}
	id := jobIdentity{
		Format:   cacheFormatVersion,
		Snapshot: sim.SnapshotVersion,
		Kind:     spec.Kind,
	}
	switch spec.Kind {
	case "sim":
		id.Topology = spec.Sim.Topology
		id.Scale = spec.Sim.Scale
		id.Cycles = spec.Sim.Cycles
		id.Seed = spec.Sim.Seed
		id.MetricsInterval = spec.Sim.MetricsInterval
		if id.Config, err = hashableConfig(spec.Sim.Config); err != nil {
			return "", err
		}
	case "experiment":
		id.Experiment = spec.Experiment
		id.Scale = spec.Scale
	case "serving":
		if id.Serving, err = hashableConfig(string(spec.Serving)); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("job kind %q has no content address", spec.Kind)
	}
	doc, err := json.Marshal(id)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(doc)), nil
}

// hashableConfig strips the "partitions" and "lookahead" keys from a
// canonical JSON document — a custom-topology config or a serving spec,
// which spell them identically — before hashing. Both are accepted and
// do nothing (the engine they tuned is gone), and they were always
// excluded from identity, so keys minted before and after agree. The
// document arrives already canonical (Normalize rendered it), so this
// only has to drop the two fields; numeric literals ride through as
// json.Number and are re-rendered verbatim.
func hashableConfig(doc string) (string, error) {
	if doc == "" {
		return "", nil
	}
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.UseNumber()
	var v map[string]interface{}
	if err := dec.Decode(&v); err != nil {
		return "", fmt.Errorf("config document: %w", err)
	}
	delete(v, "partitions")
	delete(v, "lookahead")
	out, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// CachedResult is the payload stored under a job key: one completed
// job's full output, from which every response format (JSON, CSV, text)
// re-renders byte-identically. The structure round-trips exactly through
// encoding/json — shortest-form floats, sorted map keys — which is what
// lets a decoded copy serve the same bytes a fresh run would.
type CachedResult struct {
	Kind     string                     `json:"kind"`
	Sim      *experiments.SimResult     `json:"sim,omitempty"`
	Artifact *experiments.Artifact      `json:"artifact,omitempty"`
	Serving  *experiments.ServingResult `json:"serving,omitempty"`
}

// shapeOK checks that exactly the kind-matching payload field is set.
func (c *CachedResult) shapeOK() bool {
	switch c.Kind {
	case "sim":
		return c.Sim != nil && c.Artifact == nil && c.Serving == nil
	case "experiment":
		return c.Artifact != nil && c.Sim == nil && c.Serving == nil
	case "serving":
		return c.Serving != nil && c.Sim == nil && c.Artifact == nil
	}
	return false
}

// Encode renders the payload for the artifact store.
func (c *CachedResult) Encode() ([]byte, error) {
	if !c.shapeOK() {
		return nil, fmt.Errorf("cached result shape does not match kind %q", c.Kind)
	}
	return json.Marshal(c)
}

// DecodeCachedResult parses a stored payload. The artifact store already
// CRC-verified the bytes; this guards the layer above it — a payload
// whose JSON or shape is wrong (format drift, a foreign writer) is an
// error, and callers evict the entry rather than serve it.
func DecodeCachedResult(payload []byte) (*CachedResult, error) {
	var c CachedResult
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("cached result: %w", err)
	}
	if !c.shapeOK() {
		return nil, fmt.Errorf("cached result shape does not match kind %q", c.Kind)
	}
	return &c, nil
}

// CachedSimResult decodes a sim-job payload and patches the spec echo to
// the (normalized) submission being served: the cached run and the
// submission agree on every identity field, so only identity-excluded
// knobs (checkpoint cadence, the config's inert partitions key) differ — and
// those must reflect the submission for the body to be byte-identical to
// a fresh run of it. Shared by the daemon's admission path and the CLI's
// -cache-dir.
func CachedSimResult(payload []byte, spec experiments.SimSpec) (*experiments.SimResult, error) {
	c, err := DecodeCachedResult(payload)
	if err != nil {
		return nil, err
	}
	if c.Kind != "sim" {
		return nil, fmt.Errorf("cached result is a %s job, not a sim", c.Kind)
	}
	res := *c.Sim
	res.Spec = spec
	return &res, nil
}

// CachedServingResult decodes a serving-job payload and patches the doc
// echo to the submission's own canonical document. The cached sweep and
// the submission agree on every identity field; only the excluded
// partitions/lookahead keys can differ, and the echo must reflect the
// submission for the body to be byte-identical to a fresh run of it.
// Shared by the daemon's admission path and the CLI's -cache-dir.
func CachedServingResult(payload []byte, doc string) (*experiments.ServingResult, error) {
	c, err := DecodeCachedResult(payload)
	if err != nil {
		return nil, err
	}
	if c.Kind != "serving" {
		return nil, fmt.Errorf("cached result is a %s job, not a serving sweep", c.Kind)
	}
	res := *c.Serving
	res.Doc = doc
	return &res, nil
}
