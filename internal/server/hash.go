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

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/sim"
)

// cacheFormatVersion is folded into every job key. Bump it whenever the
// Result encoding or the rendered result formats change shape, so
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
	spec, k, err := normalizeSpec(spec)
	if err != nil {
		return "", err
	}
	return keyOf(k, &spec)
}

// keyOf is JobKey for a spec that is already normalized — Submit and
// recovery normalize once and key that value.
func keyOf(k *jobKind, spec *JobSpec) (string, error) {
	id := jobIdentity{
		Format:   cacheFormatVersion,
		Snapshot: sim.SnapshotVersion,
		Kind:     k.name,
	}
	if err := k.identify(spec, &id); err != nil {
		return "", err
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

// Result is one completed job's full output, in the shape the store
// keeps under a job key: the kind's name and exactly that kind's slot
// filled. Every response format (JSON, CSV, text) re-renders from it
// byte-identically, because the structure round-trips exactly through
// encoding/json — shortest-form floats, sorted map keys — which is what
// lets a decoded copy serve the same bytes a fresh run would.
type Result struct {
	Kind     string                     `json:"kind"`
	Sim      *experiments.SimResult     `json:"sim,omitempty"`
	Artifact *experiments.Artifact      `json:"artifact,omitempty"`
	Serving  *experiments.ServingResult `json:"serving,omitempty"`
}

// kind checks the envelope's shape — a known kind, and exactly that
// kind's slot filled — and returns the kind.
func (r *Result) kind() (*jobKind, error) {
	filled := 0
	for _, set := range [...]bool{r.Sim != nil, r.Artifact != nil, r.Serving != nil} {
		if set {
			filled++
		}
	}
	if k := kinds[r.Kind]; k != nil && filled == 1 {
		if _, ok := k.slot(r); ok {
			return k, nil
		}
	}
	return nil, fmt.Errorf("cached result shape does not match kind %q", r.Kind)
}

// encode renders the result for the artifact store.
func (r *Result) encode() ([]byte, error) {
	if _, err := r.kind(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// DecodeCachedResult parses a stored payload. The artifact store already
// CRC-verified the bytes; this guards the layer above it — a payload
// whose JSON or shape is wrong (format drift, a foreign writer) is an
// error, and callers evict the entry rather than serve it.
func DecodeCachedResult(payload []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("cached result: %w", err)
	}
	if _, err := r.kind(); err != nil {
		return nil, err
	}
	return &r, nil
}

// decodeAs is DecodeCachedResult for a caller that knows which kind the
// key it looked up belongs to: a well-formed payload of another kind is
// as unusable as a malformed one.
func decodeAs(k *jobKind, payload []byte) (*Result, error) {
	r, err := DecodeCachedResult(payload)
	if err == nil && kinds[r.Kind] != k {
		return nil, fmt.Errorf("cached result is a %s job, not a %s job", r.Kind, k.name)
	}
	return r, err
}

// RunCached runs one job outside the daemon — cmd/experiments' simrun
// and serving modes — through the same kinds, keys and payloads, so the
// CLI and a daemon can share a cache directory. With a store, a stored
// result is returned without running (echoing the caller's own spec) and
// a completed run is stored for next time; an entry that does not decode
// is evicted and the job runs for real. logf gets the cache chatter, one
// line per call; resume and ctl go to the run as they are.
func RunCached(store *artifact.Store, spec JobSpec, resume []byte, ctl *experiments.SimControl,
	logf func(format string, args ...interface{})) (*Result, error) {
	k := kinds[spec.Kind]
	if k == nil {
		return nil, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
	var key string
	if store != nil {
		// An invalid spec stays as it is and falls through to the run
		// for its real error; a spec without a key just isn't cached.
		if normalized, _, err := normalizeSpec(spec); err == nil {
			spec = normalized
			key, _ = keyOf(k, &spec)
		}
	}
	if key != "" {
		if payload, ok := store.Get(key); !ok {
			logf("miss %s", key[:12])
		} else if res, err := decodeAs(k, payload); err != nil {
			// The envelope was intact but the payload shape is not ours.
			store.Delete(key)
			logf("evicted undecodable entry %s: %v", key[:12], err)
		} else {
			logf("hit %s — serving stored result", key[:12])
			return k.echo(res, &spec), nil
		}
	}
	res, err := k.exec(&spec, resume, ctl)
	if err != nil || key == "" {
		return res, err
	}
	if payload, err := res.encode(); err != nil {
		logf("not stored: %v", err)
	} else if err := store.Put(key, payload); err != nil {
		logf("not stored: %v", err)
	} else {
		logf("stored %s (%d bytes)", key[:12], len(payload))
	}
	return res, nil
}
