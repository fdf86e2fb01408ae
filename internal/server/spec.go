// Package server exposes the experiment suite as a job service: a
// bounded FIFO queue with backpressure feeds a worker pool running the
// exact RunSim/RunExperiment code paths the CLI uses, with cooperative
// cancellation, checkpoint-based suspend on shutdown, and resume on
// restart. Because both ends dispatch through the same normalized specs,
// a job's results are byte-identical to the CLI's.
//
// A job is one of a fixed set of kinds (one simulation, one paper
// artifact, one serving sweep). What a kind is — its fields of a JobSpec,
// its identity, its run, its result — is defined once, in kind.go; every
// other file in this package is kind-agnostic.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"chipletnoc/internal/experiments"
)

// maxJobSpecBytes bounds a job submission (1 MiB) — enough for a large
// inline custom-topology config, small enough that hostile submissions
// cannot balloon memory.
const maxJobSpecBytes = 1 << 20

// JobSpec is the body of a POST /jobs submission.
type JobSpec struct {
	// Kind is "sim" (default): one parameterized simulation described by
	// Sim — "experiment": one named artifact from the paper catalog — or
	// "serving": one open-loop serving sweep described by Serving.
	Kind string `json:"kind,omitempty"`
	// Sim parameterizes a "sim" job; nil means all defaults (the quick
	// golden AI-Processor run).
	Sim *experiments.SimSpec `json:"sim,omitempty"`
	// Experiment names the catalog entry for an "experiment" job.
	Experiment string `json:"experiment,omitempty"`
	// Scale is "quick" or "full" for an "experiment" or "serving" job
	// (default quick).
	Scale string `json:"scale,omitempty"`
	// Serving is the serving-spec document for a "serving" job; empty
	// means all defaults at the job's scale. Normalize canonicalizes it
	// (defaults applied, fixed field order), so the stored spec fully
	// describes the sweep.
	Serving json.RawMessage `json:"serving,omitempty"`
}

// ParseJobSpec parses and validates an untrusted job submission. Unknown
// fields, trailing garbage, oversized bodies and invalid specs are all
// errors; hostile bytes must never panic. The returned spec is fully
// normalized: running it needs no further defaulting, so the daemon and
// the CLI agree on what a spec means.
func ParseJobSpec(data []byte) (JobSpec, error) {
	js, err := decodeJobSpec(data)
	if err != nil {
		return js, err
	}
	return js.Normalize()
}

// decodeJobSpec is ParseJobSpec's strict JSON half. The HTTP handler's
// admissionOf stops here and normalizes as Submit does, so a submission
// is validated and canonicalized exactly once on its way in.
func decodeJobSpec(data []byte) (JobSpec, error) {
	var js JobSpec
	if len(data) > maxJobSpecBytes {
		return js, fmt.Errorf("job spec of %d bytes exceeds the %d-byte limit", len(data), maxJobSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return js, fmt.Errorf("job spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return js, fmt.Errorf("job spec: trailing data after JSON document")
	}
	return js, nil
}

// Normalize defaults the kind, validates the per-kind fields and
// canonicalizes the embedded spec (including the custom-topology config
// document, whose JSON is re-rendered with sorted keys). It is
// idempotent, and EVERY way in — Submit, a recovered record, the CLI —
// normalizes before anything persists, hashes or runs, so a job's
// on-disk record, its log lines and its content hash always describe the
// same canonical spec. The per-kind rules live with the kind (kind.go).
func (js JobSpec) Normalize() (JobSpec, error) {
	js, _, err := normalizeSpec(js)
	return js, err
}
