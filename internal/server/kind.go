// The job-kind seam. Everything the daemon knows about one kind of job
// is one jobKind value in the table below. Admission, coalescing,
// caching, persistence, recovery, the flight runner and the result
// handler hold a *jobKind and never name a kind; a further kind is one
// more entry here plus one more slot in Result.
package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"chipletnoc/internal/experiments"
)

// The kind names, as JobSpec.Kind and Result.Kind spell them. CI fails
// if one of these literals appears in this package outside this file.
const (
	kindSim        = "sim"
	kindExperiment = "experiment"
	kindServing    = "serving"
)

// jobKind describes one kind of job. Every func but normalize receives
// a spec that normalize has accepted.
type jobKind struct {
	name string
	// normalize validates the kind's fields of a submission and rewrites
	// them in canonical form, in place. Idempotent.
	normalize func(js *JobSpec) error
	// identify copies the result-determining fields into the identity
	// document a job key hashes.
	identify func(js *JobSpec, id *jobIdentity) error
	// run executes the spec and fills the kind's slot of a Result; call
	// it through exec. resume is a checkpoint of an earlier run (nil for
	// a fresh start), ctl the caller's interrupt poll and checkpoint
	// sink; interruptible says the run consults ctl itself.
	run           func(js *JobSpec, resume []byte, ctl *experiments.SimControl) (Result, error)
	interruptible bool
	// slot returns the kind's slot of a result (the value format=json
	// serves) and whether it is filled.
	slot func(r *Result) (interface{}, bool)
	// echo returns r carrying the submission's own spec. The run behind
	// r agrees with js on every identity field, so only identity-excluded
	// knobs (the sim checkpoint cadence) can differ — and those must
	// reflect the submission for a cached or coalesced body to be
	// byte-identical to a fresh run of it. r is shared between jobs and
	// never written.
	echo func(r *Result, js *JobSpec) *Result
	// csv and text render the non-JSON formats; file is the ?file=
	// selector, and a csv error is the client's (400).
	csv  func(r *Result, file string) (string, error)
	text func(r *Result) string
}

// kinds is the fixed table of job kinds, by name.
var kinds = map[string]*jobKind{
	kindSim: {
		name: kindSim,
		normalize: func(js *JobSpec) error {
			if js.Experiment != "" || js.Scale != "" {
				return fmt.Errorf("sim job must not set experiment or scale (scale lives in sim.scale)")
			}
			if len(js.Serving) > 0 {
				return fmt.Errorf("sim job must not set a serving spec")
			}
			if js.Sim == nil {
				js.Sim = &experiments.SimSpec{}
			}
			normalized, err := js.Sim.Normalize()
			if err != nil {
				return fmt.Errorf("sim spec: %w", err)
			}
			js.Sim = &normalized
			return nil
		},
		identify: func(js *JobSpec, id *jobIdentity) error {
			id.Topology = js.Sim.Topology
			id.Scale = js.Sim.Scale
			id.Cycles = js.Sim.Cycles
			id.Seed = js.Sim.Seed
			id.MetricsInterval = js.Sim.MetricsInterval
			id.Config = js.Sim.Config
			return nil
		},
		run: func(js *JobSpec, resume []byte, ctl *experiments.SimControl) (r Result, err error) {
			r.Sim, err = experiments.RunSim(*js.Sim, resume, ctl)
			return r, err
		},
		interruptible: true,
		slot:          func(r *Result) (interface{}, bool) { return r.Sim, r.Sim != nil },
		echo: func(r *Result, js *JobSpec) *Result {
			res := *r.Sim
			res.Spec = *js.Sim
			return &Result{Kind: kindSim, Sim: &res}
		},
		csv:  func(r *Result, _ string) (string, error) { return r.Sim.CSV(), nil },
		text: func(r *Result) string { return r.Sim.Render() },
	},
	kindExperiment: {
		name: kindExperiment,
		normalize: func(js *JobSpec) error {
			if js.Sim != nil || len(js.Serving) > 0 {
				return fmt.Errorf("experiment job must not set a sim or serving spec")
			}
			name, err := experiments.CanonicalExperiment(js.Experiment)
			if err != nil {
				return err
			}
			js.Experiment = name
			scale, err := experiments.ParseScale(js.Scale)
			if err != nil {
				return err
			}
			js.Scale = experiments.ScaleName(scale)
			return nil
		},
		identify: func(js *JobSpec, id *jobIdentity) error {
			id.Experiment = js.Experiment
			id.Scale = js.Scale
			return nil
		},
		// Experiments are coarse-grained (internally parallel, no
		// checkpoint), so cancellation and the wall-clock deadline take
		// effect at job granularity.
		run: func(js *JobSpec, _ []byte, _ *experiments.SimControl) (r Result, err error) {
			scale, err := experiments.ParseScale(js.Scale)
			if err == nil {
				r.Artifact, err = experiments.RunExperiment(js.Experiment, scale)
			}
			return r, err
		},
		slot: func(r *Result) (interface{}, bool) { return r.Artifact, r.Artifact != nil },
		echo: func(r *Result, _ *JobSpec) *Result { return r },
		csv: func(r *Result, file string) (string, error) {
			csvs := r.Artifact.CSVs
			if file == "" && len(csvs) == 1 {
				for f := range csvs {
					file = f
				}
			}
			data, ok := csvs[file]
			if !ok {
				return "", fmt.Errorf("pick a CSV with ?file=; this artifact has: %s", strings.Join(r.Artifact.Files(), ", "))
			}
			return data, nil
		},
		text: func(r *Result) string { return r.Artifact.Text },
	},
	kindServing: {
		name: kindServing,
		normalize: func(js *JobSpec) error {
			if js.Sim != nil || js.Experiment != "" {
				return fmt.Errorf("serving job must not set a sim spec or experiment name")
			}
			scale, err := experiments.ParseScale(js.Scale)
			if err != nil {
				return err
			}
			js.Scale = experiments.ScaleName(scale)
			canonical, _, err := experiments.NormalizeServingDoc(string(js.Serving), scale)
			if err != nil {
				return err
			}
			js.Serving = json.RawMessage(canonical)
			return nil
		},
		identify: func(js *JobSpec, id *jobIdentity) (err error) {
			id.Serving, err = sortedJSON(string(js.Serving))
			return err
		},
		// Like experiments, serving sweeps are coarse-grained (the load
		// points fan out over the experiment worker pool, no checkpoint).
		// The document is already canonical, so rerunning it through the
		// normalizing runner is a no-op on identity.
		run: func(js *JobSpec, _ []byte, _ *experiments.SimControl) (r Result, err error) {
			scale, err := experiments.ParseScale(js.Scale)
			if err == nil {
				r.Serving, err = experiments.RunServingDoc(string(js.Serving), scale)
			}
			return r, err
		},
		slot: func(r *Result) (interface{}, bool) { return r.Serving, r.Serving != nil },
		echo: func(r *Result, _ *JobSpec) *Result { return r },
		csv:  func(r *Result, _ string) (string, error) { return r.Serving.CSV(), nil },
		text: func(r *Result) string { return r.Serving.Render() },
	},
}

// normalizeSpec defaults the kind (from which per-kind field is set) and
// has that kind validate and canonicalize the rest: the one way in for a
// spec from outside — a submission, a persisted record, the CLI. It
// returns the kind every later step works through.
func normalizeSpec(js JobSpec) (JobSpec, *jobKind, error) {
	if js.Kind == "" {
		switch {
		case js.Experiment != "":
			js.Kind = kindExperiment
		case len(js.Serving) > 0:
			js.Kind = kindServing
		default:
			js.Kind = kindSim
		}
	}
	k := kinds[js.Kind]
	if k == nil {
		return js, nil, fmt.Errorf("unknown job kind %q (want sim, experiment or serving)", js.Kind)
	}
	err := k.normalize(&js)
	return js, k, err
}

// exec runs a spec and stamps the result with the kind's name. A kind
// that is not interruptible cannot consult ctl during its run, so exec
// polls once for it afterwards: a cancel that landed meanwhile (the
// deadline arrives as one) discards the finished result — the job is
// reported canceled or failed and nothing is cached — while a suspend is
// ignored: the run is already over, so a draining daemon lets it finish.
func (k *jobKind) exec(js *JobSpec, resume []byte, ctl *experiments.SimControl) (*Result, error) {
	r, err := k.run(js, resume, ctl)
	if err == nil && !k.interruptible && ctl != nil && ctl.Interrupt != nil && ctl.Interrupt() == experiments.CancelRun {
		err = experiments.ErrCanceled
	}
	if err != nil {
		return nil, err
	}
	r.Kind = k.name
	return &r, nil
}
