// Serving-workload specs: the declarative description of an open-loop
// MoE/transformer serving experiment — how many chiplet dies, the
// per-layer command DAG a request executes (attention, MoE dispatch /
// expert-compute / combine, FFN), where each expert lives, the arrival
// process and the offered-load sweep. internal/serving builds and runs
// the system; this file owns parsing, validation and canonicalization so
// the CLI and the nocd daemon agree byte-for-byte on what a spec means.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Serving layer kinds.
const (
	LayerAttention = "attention"
	LayerMoE       = "moe"
	LayerFFN       = "ffn"
)

// ServingLayerSpec describes one layer of the per-request command DAG.
type ServingLayerSpec struct {
	// Kind is "attention", "moe" or "ffn".
	Kind string `json:"kind"`
	// Deps lists the layer indices whose completion gates this layer.
	// Empty means the previous layer (a plain chain); explicit entries
	// express wider DAGs — parallel branches, skip connections. The
	// resulting layer graph must be acyclic.
	Deps []int `json:"deps,omitempty"`
	// ComputeCycles models the layer's arithmetic after its operands
	// arrive (an expert's compute for MoE layers).
	ComputeCycles int `json:"computeCycles,omitempty"`
	// Bytes is the activation transfer the layer moves over the NoC: a
	// weight read for attention/FFN, the per-expert dispatch and combine
	// payload for MoE.
	Bytes int `json:"bytes,omitempty"`

	// MoE-only fields.
	// Experts is the expert population of a MoE layer.
	Experts int `json:"experts,omitempty"`
	// FanOut is how many experts each batch routes to (top-k).
	FanOut int `json:"fanOut,omitempty"`
	// ExpertDies maps each expert to a die; empty round-robins experts
	// across dies (the all-to-all expert-parallel placement).
	ExpertDies []int `json:"expertDies,omitempty"`
	// ExpertBytes is the weight read an activated expert performs on its
	// own die before computing.
	ExpertBytes int `json:"expertBytes,omitempty"`
}

// ServingArrivalSpec selects the open-loop arrival process.
type ServingArrivalSpec struct {
	// Process is "poisson" (memoryless) or "bursty" (Markov-modulated
	// on/off: exponential-ish on and off sojourns, all arrivals during
	// on periods, same mean rate).
	Process string `json:"process,omitempty"`
	// BurstOn / BurstOff are the mean on/off sojourn lengths in cycles
	// for the bursty process.
	BurstOn  int `json:"burstOn,omitempty"`
	BurstOff int `json:"burstOff,omitempty"`
}

// ServingSpec is the whole experiment description. The zero value (or an
// empty JSON document) means "all defaults" once ApplyDefaults has run.
type ServingSpec struct {
	Name string `json:"name,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// Dies is the chiplet count; each die carries one serving engine and
	// one local memory, joined through a hub ring by RBRG-L2 bridges.
	Dies int `json:"dies,omitempty"`
	// Layers is the command-DAG template every request executes.
	Layers []ServingLayerSpec `json:"layers,omitempty"`
	// Arrival selects the open-loop arrival process.
	Arrival ServingArrivalSpec `json:"arrival"`
	// Loads is the offered-load sweep in requests per 1000 cycles; each
	// entry runs one independent simulation.
	Loads []float64 `json:"loads,omitempty"`
	// Cycles is the per-load simulation window.
	Cycles uint64 `json:"cycles,omitempty"`
	// Batch is the number of requests grouped into one DAG execution.
	Batch int `json:"batch,omitempty"`
	// LowWatermark / HighWatermark govern batch streaming: when in-flight
	// batches drain to Low, the host streams new ones in until High (the
	// uPimulator double-buffering scheme at Low 1 / High 2).
	LowWatermark  int `json:"lowWatermark,omitempty"`
	HighWatermark int `json:"highWatermark,omitempty"`

	// Partitions / Lookahead are accepted (this decoder rejects unknown
	// fields, and persisted specs carry them), range-checked and ignored,
	// and stay excluded from cache identity, like Spec's keys of the same
	// name.
	Partitions int `json:"partitions,omitempty"`
	Lookahead  int `json:"lookahead,omitempty"`
}

// Construction limits for serving specs; the same spirit as the
// topology-config limits — a hostile spec must fail fast, not allocate.
const (
	MaxServingDies   = 16
	MaxServingLayers = 64
	MaxServingExpert = 32
	MaxServingLoads  = 32
	MaxServingCycles = 10_000_000
	MaxServingBatch  = 256
	MaxServingBytes  = 1 << 20
	maxServingLoad   = 10_000 // requests per kcycle; ≥ 10/cycle is nonsense
	maxSojourn       = 1_000_000
	maxComputeCycles = 1_000_000
)

// ParseServingSpec parses and validates an untrusted serving-spec
// document. Unknown fields, trailing garbage and structurally invalid
// specs (cyclic layer deps, experts on absent dies, zero-rate arrival
// sweeps) are errors; hostile bytes must never panic. Defaults are NOT
// applied — callers that run the spec call ApplyDefaults first and then
// Validate holds on the result too.
func ParseServingSpec(data []byte) (*ServingSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s ServingSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("serving spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("serving spec: trailing data after JSON document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ApplyDefaults fills every zero field with the reference workload: a
// four-die package running two transformer blocks (attention → 4-expert
// MoE → FFN) under Poisson arrivals, double-buffered batches. quick
// selects the CI-sized window and load sweep, !quick the paper-sized
// one. Idempotent, and the result always passes Validate.
func (s *ServingSpec) ApplyDefaults(quick bool) {
	if s.Name == "" {
		s.Name = "moe-serving"
	}
	if s.Dies == 0 {
		s.Dies = 4
	}
	if len(s.Layers) == 0 {
		block := []ServingLayerSpec{
			{Kind: LayerAttention, ComputeCycles: 32, Bytes: 1024},
			{Kind: LayerMoE, ComputeCycles: 48, Bytes: 512, Experts: 4, FanOut: 2, ExpertBytes: 1024},
			{Kind: LayerFFN, ComputeCycles: 24, Bytes: 1024},
		}
		s.Layers = append(append([]ServingLayerSpec{}, block...), block...)
	}
	for i := range s.Layers {
		l := &s.Layers[i]
		if l.Kind != LayerMoE {
			continue
		}
		if l.FanOut == 0 {
			l.FanOut = 1
			if l.Experts > 1 {
				l.FanOut = 2
			}
		}
		if l.ExpertBytes == 0 {
			l.ExpertBytes = 1024
		}
		if len(l.ExpertDies) == 0 {
			for e := 0; e < l.Experts; e++ {
				l.ExpertDies = append(l.ExpertDies, e%s.Dies)
			}
		}
	}
	if s.Arrival.Process == "" {
		s.Arrival.Process = "poisson"
	}
	if s.Arrival.Process == "bursty" {
		if s.Arrival.BurstOn == 0 {
			s.Arrival.BurstOn = 512
		}
		if s.Arrival.BurstOff == 0 {
			s.Arrival.BurstOff = 1536
		}
	}
	if len(s.Loads) == 0 {
		if quick {
			s.Loads = []float64{1, 4, 16, 64}
		} else {
			s.Loads = []float64{1, 2, 4, 8, 16, 32, 64, 128}
		}
	}
	if s.Cycles == 0 {
		if quick {
			s.Cycles = 8000
		} else {
			s.Cycles = 40000
		}
	}
	if s.Batch == 0 {
		s.Batch = 4
	}
	// Default to a 2/8 watermark pair: deep enough that the lightest
	// loads run unsaturated (the knee stays inside the sweep), shallow
	// enough that overload stalls are visible.
	if s.HighWatermark == 0 {
		if s.LowWatermark == 0 {
			s.LowWatermark = 2
		}
		s.HighWatermark = s.LowWatermark + 6
	}
	if s.LowWatermark == 0 && s.HighWatermark > 1 {
		s.LowWatermark = 1
	}
}

// Validate checks structural invariants. It holds both on freshly parsed
// documents (where zero fields mean "default me later") and on defaulted
// specs, so every admission path can call it.
func (s *ServingSpec) Validate() error {
	if s.Dies < 0 || s.Dies > MaxServingDies {
		return fmt.Errorf("serving spec: %d dies outside [0, %d]", s.Dies, MaxServingDies)
	}
	dies := s.Dies
	if dies == 0 {
		dies = 4 // the ApplyDefaults die count, for expert-map checks
	}
	if len(s.Layers) > MaxServingLayers {
		return fmt.Errorf("serving spec: %d layers exceed the %d-layer limit", len(s.Layers), MaxServingLayers)
	}
	for i := range s.Layers {
		if err := s.Layers[i].validate(i, len(s.Layers), dies); err != nil {
			return err
		}
	}
	if err := validateLayerDAG(s.Layers); err != nil {
		return err
	}
	switch s.Arrival.Process {
	case "", "poisson", "bursty":
	default:
		return fmt.Errorf("serving spec: unknown arrival process %q (want poisson or bursty)", s.Arrival.Process)
	}
	if s.Arrival.BurstOn < 0 || s.Arrival.BurstOn > maxSojourn ||
		s.Arrival.BurstOff < 0 || s.Arrival.BurstOff > maxSojourn {
		return fmt.Errorf("serving spec: burst sojourns outside [0, %d]", maxSojourn)
	}
	if len(s.Loads) > MaxServingLoads {
		return fmt.Errorf("serving spec: %d load points exceed the %d-point limit", len(s.Loads), MaxServingLoads)
	}
	for _, l := range s.Loads {
		// NaN fails every comparison, so it lands here too.
		if !(l > 0) || l > maxServingLoad {
			return fmt.Errorf("serving spec: offered load %v outside (0, %d] requests/kcycle", l, maxServingLoad)
		}
	}
	if s.Cycles > MaxServingCycles {
		return fmt.Errorf("serving spec: %d cycles exceed the %d-cycle limit", s.Cycles, MaxServingCycles)
	}
	if s.Batch < 0 || s.Batch > MaxServingBatch {
		return fmt.Errorf("serving spec: batch %d outside [0, %d]", s.Batch, MaxServingBatch)
	}
	if s.LowWatermark < 0 || s.HighWatermark < 0 {
		return fmt.Errorf("serving spec: negative watermark")
	}
	if s.HighWatermark > 64 || s.LowWatermark > 58 {
		return fmt.Errorf("serving spec: watermarks %d/%d exceed the 64-batch in-flight cap", s.LowWatermark, s.HighWatermark)
	}
	if s.HighWatermark != 0 && s.LowWatermark >= s.HighWatermark {
		return fmt.Errorf("serving spec: low watermark %d must be below high watermark %d", s.LowWatermark, s.HighWatermark)
	}
	if s.Partitions < -1 {
		return fmt.Errorf("serving spec: partitions %d invalid", s.Partitions)
	}
	if s.Lookahead < 0 {
		return fmt.Errorf("serving spec: negative lookahead")
	}
	return nil
}

func (l *ServingLayerSpec) validate(i, layers, dies int) error {
	switch l.Kind {
	case LayerAttention, LayerFFN:
		if l.Experts != 0 || l.FanOut != 0 || len(l.ExpertDies) != 0 || l.ExpertBytes != 0 {
			return fmt.Errorf("serving spec: layer %d (%s) sets MoE fields", i, l.Kind)
		}
	case LayerMoE:
		if l.Experts < 1 || l.Experts > MaxServingExpert {
			return fmt.Errorf("serving spec: layer %d has %d experts outside [1, %d]", i, l.Experts, MaxServingExpert)
		}
		if l.FanOut < 0 || l.FanOut > l.Experts {
			return fmt.Errorf("serving spec: layer %d fan-out %d outside [0, %d experts]", i, l.FanOut, l.Experts)
		}
		if len(l.ExpertDies) != 0 && len(l.ExpertDies) != l.Experts {
			return fmt.Errorf("serving spec: layer %d maps %d of %d experts to dies", i, len(l.ExpertDies), l.Experts)
		}
		for e, die := range l.ExpertDies {
			if die < 0 || die >= dies {
				return fmt.Errorf("serving spec: layer %d expert %d on absent die %d (have %d dies)", i, e, die, dies)
			}
		}
		if l.ExpertBytes < 0 || l.ExpertBytes > MaxServingBytes {
			return fmt.Errorf("serving spec: layer %d expert bytes %d outside [0, %d]", i, l.ExpertBytes, MaxServingBytes)
		}
	default:
		return fmt.Errorf("serving spec: layer %d has unknown kind %q", i, l.Kind)
	}
	if l.ComputeCycles < 0 || l.ComputeCycles > maxComputeCycles {
		return fmt.Errorf("serving spec: layer %d compute %d outside [0, %d]", i, l.ComputeCycles, maxComputeCycles)
	}
	if l.Bytes < 0 || l.Bytes > MaxServingBytes {
		return fmt.Errorf("serving spec: layer %d moves %d bytes outside [0, %d]", i, l.Bytes, MaxServingBytes)
	}
	for _, d := range l.Deps {
		if d < 0 || d >= layers {
			return fmt.Errorf("serving spec: layer %d depends on absent layer %d", i, d)
		}
		if d == i {
			return fmt.Errorf("serving spec: layer %d depends on itself", i)
		}
	}
	return nil
}

// validateLayerDAG rejects cyclic layer dependencies with Kahn's
// algorithm over the explicit-deps graph (the implicit previous-layer
// chain cannot form cycles).
func validateLayerDAG(layers []ServingLayerSpec) error {
	n := len(layers)
	indeg := make([]int, n)
	out := make([][]int, n)
	for i := range layers {
		for _, d := range layers[i].Deps {
			if d < 0 || d >= n || d == i {
				return nil // per-layer validation already rejected it
			}
			out[d] = append(out[d], i)
			indeg[i]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		done++
		for _, j := range out[i] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if done != n {
		return fmt.Errorf("serving spec: layer dependencies form a cycle")
	}
	return nil
}

// LayerDeps returns layer i's effective dependency list: the explicit
// Deps, or the previous layer for a chain. The first layer of a chain
// has none.
func (s *ServingSpec) LayerDeps(i int) []int {
	if len(s.Layers[i].Deps) > 0 {
		return s.Layers[i].Deps
	}
	if i == 0 {
		return nil
	}
	return []int{i - 1}
}

// CanonicalServingDoc re-renders a defaulted spec as the canonical JSON
// document (fixed struct field order, no indentation) that admission
// paths persist and hash.
func CanonicalServingDoc(s *ServingSpec) (string, error) {
	out, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return string(out), nil
}
