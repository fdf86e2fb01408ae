// Single-simulation runs as a service primitive: RunSim executes one
// deterministic simulation described by a SimSpec, with optional
// periodic checkpointing, cooperative interruption (cancel or
// suspend-with-checkpoint) and resume from a checkpoint blob. The nocd
// daemon and the experiments CLI both call exactly this function with
// exactly the same defaults, which is what makes the service's results
// bit-identical to the CLI's.
package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"chipletnoc/internal/config"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/stats"
	"chipletnoc/internal/traffic"
)

// SimSpec describes one simulation job. The zero value of every field is
// a valid default; Normalize fills them in. Specs travel as JSON in job
// submissions and inside checkpoints (a resumed job proves it is
// continuing the same spec).
type SimSpec struct {
	// Topology is "ai-processor" (default), "server-cpu", or "custom"
	// (a declarative internal/config document in Config).
	Topology string `json:"topology,omitempty"`
	// Scale is "quick" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Cycles is the simulated cycle budget; 0 picks the scale default
	// (3000 quick, 20000 full).
	Cycles uint64 `json:"cycles,omitempty"`
	// Seed perturbs every RNG stream; 0 is the golden-digest seed.
	Seed uint64 `json:"seed,omitempty"`
	// CheckpointEvery, when non-zero, checkpoints every that many
	// cycles. It also bounds cancellation latency: interruption is
	// checked at checkpoint boundaries.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	// MetricsInterval, when non-zero, attaches a metrics registry
	// sampling series every that many cycles; the snapshot rides in the
	// JSON result.
	MetricsInterval uint64 `json:"metrics_interval,omitempty"`
	// Config is the internal/config JSON document for the "custom"
	// topology (stored as a string so specs stay comparable — checkpoint
	// resume compares specs for identity).
	Config string `json:"config,omitempty"`
}

// Normalize fills defaults and validates; it is idempotent, and both the
// CLI and the daemon normalize before running, so equal inputs mean
// equal runs.
func (s SimSpec) Normalize() (SimSpec, error) {
	if s.Topology == "" {
		s.Topology = "ai-processor"
	}
	if s.Scale == "" {
		s.Scale = "quick"
	}
	switch s.Topology {
	case "ai-processor", "server-cpu":
		if s.Config != "" {
			return s, fmt.Errorf("config document is only valid with the custom topology")
		}
	case "custom":
		if s.Config == "" {
			return s, fmt.Errorf("custom topology requires a config document")
		}
		if s.Seed != 0 {
			return s, fmt.Errorf("custom topology seeds live inside the config document")
		}
		if _, err := config.Parse([]byte(s.Config)); err != nil {
			return s, err
		}
		canon, err := canonicalConfig(s.Config)
		if err != nil {
			return s, fmt.Errorf("config document: %w", err)
		}
		s.Config = canon
	default:
		return s, fmt.Errorf("unknown topology %q (want ai-processor, server-cpu or custom)", s.Topology)
	}
	switch s.Scale {
	case "quick", "full":
	default:
		return s, fmt.Errorf("unknown scale %q (want quick or full)", s.Scale)
	}
	if s.Cycles == 0 {
		if s.Scale == "quick" {
			s.Cycles = 3000
		} else {
			s.Cycles = 20000
		}
	}
	return s, nil
}

// canonicalConfig re-renders a config document in canonical form: object
// keys sorted, whitespace normalized, numeric literals preserved
// verbatim (json.Number, so 64-bit seeds survive and no float rounding
// sneaks in), and the inert "partitions"/"lookahead" keys dropped
// (config.Spec accepts them). Two submissions that differ only in key
// order, spacing or those keys therefore normalize — and hash —
// identically. Idempotent by construction: the canonical form
// re-canonicalizes to itself.
func canonicalConfig(doc string) (string, error) {
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.UseNumber()
	var v map[string]interface{}
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	delete(v, "partitions")
	delete(v, "lookahead")
	out, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// SimResult is the deterministic outcome of a RunSim call: flit-level
// digest, latency statistics from the per-requester histograms, and the
// metrics snapshot when enabled. Identical specs produce identical
// results, whether run via the CLI or the daemon.
type SimResult struct {
	Spec           SimSpec           `json:"spec"`
	Injected       uint64            `json:"injected"`
	Delivered      uint64            `json:"delivered"`
	Dropped        uint64            `json:"dropped"`
	Deflections    uint64            `json:"deflections"`
	Hops           uint64            `json:"hops"`
	DeliveredBytes uint64            `json:"delivered_bytes"`
	LatencySamples uint64            `json:"latency_samples"`
	LatencyFNV     string            `json:"latency_fnv"` // hex digest of per-flit latencies
	LatencyMean    float64           `json:"latency_mean"`
	LatencyP50     float64           `json:"latency_p50"`
	LatencyP99     float64           `json:"latency_p99"`
	LatencyMax     float64           `json:"latency_max"`
	Metrics        *metrics.Snapshot `json:"metrics,omitempty"`
}

// csvFloat renders a float the same way everywhere (shortest exact form).
func csvFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CSV renders the result as a two-line CSV; byte-identical for identical
// specs.
func (r *SimResult) CSV() string {
	var b strings.Builder
	b.WriteString("topology,scale,seed,cycles,injected,delivered,dropped,deflections,hops,delivered_bytes,latency_samples,latency_fnv,latency_mean,latency_p50,latency_p99,latency_max\n")
	fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s\n",
		r.Spec.Topology, r.Spec.Scale, r.Spec.Seed, r.Spec.Cycles,
		r.Injected, r.Delivered, r.Dropped, r.Deflections, r.Hops, r.DeliveredBytes,
		r.LatencySamples, r.LatencyFNV,
		csvFloat(r.LatencyMean), csvFloat(r.LatencyP50), csvFloat(r.LatencyP99), csvFloat(r.LatencyMax))
	return b.String()
}

// Render returns a human-readable summary.
func (r *SimResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simrun %s/%s seed=%d cycles=%d\n", r.Spec.Topology, r.Spec.Scale, r.Spec.Seed, r.Spec.Cycles)
	fmt.Fprintf(&b, "  injected %d, delivered %d (%d B), dropped %d, deflections %d, hops %d\n",
		r.Injected, r.Delivered, r.DeliveredBytes, r.Dropped, r.Deflections, r.Hops)
	fmt.Fprintf(&b, "  latency: %d samples, digest %s, mean %.1f, p50 %.0f, p99 %.0f, max %.0f cycles\n",
		r.LatencySamples, r.LatencyFNV, r.LatencyMean, r.LatencyP50, r.LatencyP99, r.LatencyMax)
	return b.String()
}

// InterruptKind is the verdict of a SimControl.Interrupt poll.
type InterruptKind int

const (
	// KeepRunning continues the simulation.
	KeepRunning InterruptKind = iota
	// CancelRun stops and discards state; RunSim returns ErrCanceled.
	CancelRun
	// SuspendRun stops and checkpoints; RunSim returns *Interrupted.
	SuspendRun
)

// SimControl hooks a running simulation. All callbacks are invoked
// between run slices — never inside a cycle — so checkpointing costs
// nothing on the simulator's hot path.
type SimControl struct {
	// Interrupt is polled at slice boundaries (every CheckpointEvery
	// cycles, or every 1024 when checkpointing is off). Nil means never
	// interrupted.
	Interrupt func() InterruptKind
	// OnCheckpoint receives each periodic checkpoint when
	// CheckpointEvery is non-zero. An error aborts the run.
	OnCheckpoint func(data []byte, cycle uint64) error
}

// ErrCanceled reports a run stopped by a CancelRun verdict.
var ErrCanceled = errors.New("experiments: run canceled")

// Interrupted reports a run stopped by a SuspendRun verdict; Checkpoint
// resumes it (pass as RunSim's resume argument, possibly in a new
// process).
type Interrupted struct {
	Cycle      uint64
	Checkpoint []byte
}

// Error implements error.
func (e *Interrupted) Error() string {
	return fmt.Sprintf("experiments: run suspended at cycle %d (%d-byte checkpoint)", e.Cycle, len(e.Checkpoint))
}

// interruptPollStride bounds cancellation latency when checkpointing is
// off.
const interruptPollStride = 1024

// buildSimSystem constructs the spec's topology: the network runs,
// checkpoints, reports metrics and yields its latency population the same
// way whatever was built on it. Quick AI is exactly the golden-digest
// configuration, so the service's smallest job is pinned by the same
// constants as the test suite.
func buildSimSystem(spec SimSpec) (*noc.Network, error) {
	switch spec.Topology {
	case "ai-processor":
		cfg := soc.DefaultAIConfig()
		if spec.Scale == "quick" {
			cfg = soc.QuickAIConfig()
		}
		cfg.Seed = spec.Seed
		return soc.BuildAIProcessor(cfg).Net, nil
	case "server-cpu":
		cores := 32
		if spec.Scale == "quick" {
			cores = 8
		}
		cfg := soc.ScaledServerConfig(cores)
		cfg.Seed = spec.Seed
		s := soc.BuildServerCPU(cfg, soc.MemoryCores, func(core int, s *soc.ServerCPU) traffic.RequesterConfig {
			const line = 64
			return traffic.RequesterConfig{
				Outstanding:  16,
				Rate:         1,
				ReadFraction: 0.7,
				LineBytes:    line,
				Stream:       traffic.NewSeqStream(uint64(core)<<28, line, 1<<22),
				TargetOf:     traffic.InterleavedTargetsBy(s.AllDDRNodes(), line),
			}
		})
		return s.Net, nil
	case "custom":
		cfgSpec, err := config.Parse([]byte(spec.Config))
		if err != nil {
			return nil, err
		}
		sys, err := cfgSpec.Build()
		if err != nil {
			return nil, err
		}
		return sys.Net, nil
	}
	panic("experiments: buildSimSystem on unnormalized spec")
}

// maxExtraField bounds the pieces of a checkpoint's extra blob.
const maxExtraField = 16 << 20

// simProgress is the run-loop state that must survive a checkpoint: the
// resumable latency digest and the carried-over metrics trajectory.
type simProgress struct {
	latCount uint64
	latHash  uint64
	carried  *metrics.Snapshot
}

// snapExtra walks a checkpoint's extra blob — the spec and the carried
// metrics as JSON documents around the latency digest — in its one field
// order, either direction.
func snapExtra(c *sim.Codec, specJSON *[]byte, p *simProgress, metJSON *[]byte) {
	c.Bytes(specJSON, maxExtraField)
	c.U64(&p.latCount)
	c.U64(&p.latHash)
	c.Bytes(metJSON, maxExtraField)
}

// encodeExtra packs the spec and progress into a checkpoint's extra
// blob.
func encodeExtra(spec SimSpec, p *simProgress) ([]byte, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var metJSON []byte
	if p.carried != nil {
		if metJSON, err = json.Marshal(p.carried); err != nil {
			return nil, err
		}
	}
	e := sim.NewEncoder()
	snapExtra(sim.Saving(e), &specJSON, p, &metJSON)
	return e.Data(), nil
}

// decodeExtra unpacks a checkpoint's extra blob and verifies it belongs
// to spec.
func decodeExtra(extra []byte, spec SimSpec) (*simProgress, error) {
	var specJSON, metJSON []byte
	p := &simProgress{}
	c := sim.Loading(sim.NewDecoder(extra))
	snapExtra(c, &specJSON, p, &metJSON)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint progress blob: %w", err)
	}
	var ckptSpec SimSpec
	if err := json.Unmarshal(specJSON, &ckptSpec); err != nil {
		return nil, fmt.Errorf("checkpoint spec: %w", err)
	}
	// The checkpoint cadence is excluded from identity and neutralized
	// before comparison: it only decides when snapshots are taken, never
	// what the simulation computes — so a checkpoint taken under one
	// cadence may resume a submission that asked for another.
	ckptSpec.CheckpointEvery, spec.CheckpointEvery = 0, 0
	if ckptSpec != spec {
		return nil, fmt.Errorf("checkpoint was taken for spec %+v, not %+v", ckptSpec, spec)
	}
	if len(metJSON) > 0 {
		p.carried = &metrics.Snapshot{}
		if err := json.Unmarshal(metJSON, p.carried); err != nil {
			return nil, fmt.Errorf("checkpoint metrics carry-over: %w", err)
		}
	}
	return p, nil
}

// RunSim executes one simulation to completion (or interruption). resume
// is a checkpoint blob from a previous run of the same spec, or nil for
// a fresh start. ctl may be nil.
func RunSim(spec SimSpec, resume []byte, ctl *SimControl) (*SimResult, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if ctl == nil {
		ctl = &SimControl{}
	}

	net, err := buildSimSystem(spec)
	if err != nil {
		return nil, err
	}
	progress := &simProgress{latHash: sim.FNVOffset}
	if resume != nil {
		extra, err := noc.DecodeCheckpoint(resume, net)
		if err != nil {
			return nil, err
		}
		if progress, err = decodeExtra(extra, spec); err != nil {
			return nil, err
		}
		if net.Ticks() > spec.Cycles {
			return nil, fmt.Errorf("checkpoint at cycle %d is beyond the %d-cycle budget", net.Ticks(), spec.Cycles)
		}
	}
	net.RecordLatency(func(f *noc.Flit, cycles uint64) {
		progress.latHash = sim.FNV1aFoldU64(progress.latHash, cycles)
		progress.latCount++
	})

	var reg *metrics.Registry
	if spec.MetricsInterval > 0 {
		reg = metrics.New(spec.MetricsInterval)
		net.EnableMetrics(reg)
	}

	checkpoint := func() ([]byte, error) {
		extra, err := encodeExtra(spec, &simProgress{
			latCount: progress.latCount,
			latHash:  progress.latHash,
			carried:  stitchedMetrics(reg, progress.carried, spec, net.Ticks()),
		})
		if err != nil {
			return nil, err
		}
		return noc.EncodeCheckpoint(net, extra)
	}

	stride := spec.CheckpointEvery
	if stride == 0 {
		stride = interruptPollStride
	}
	for net.Ticks() < spec.Cycles {
		n := spec.Cycles - net.Ticks()
		if n > stride {
			n = stride
		}
		net.Run(int(n))

		if ctl.Interrupt != nil {
			switch ctl.Interrupt() {
			case CancelRun:
				return nil, ErrCanceled
			case SuspendRun:
				data, err := checkpoint()
				if err != nil {
					return nil, err
				}
				return nil, &Interrupted{Cycle: net.Ticks(), Checkpoint: data}
			}
		}
		if spec.CheckpointEvery > 0 && ctl.OnCheckpoint != nil && net.Ticks() < spec.Cycles {
			data, err := checkpoint()
			if err != nil {
				return nil, err
			}
			if err := ctl.OnCheckpoint(data, net.Ticks()); err != nil {
				return nil, err
			}
		}
	}

	return buildResult(spec, net, progress, reg), nil
}

// stitchedMetrics snapshots reg and prepends the carried-over series.
func stitchedMetrics(reg *metrics.Registry, carried *metrics.Snapshot, spec SimSpec, cycles uint64) *metrics.Snapshot {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot(spec.Topology, cycles)
	snap.PrependSeries(carried)
	return snap
}

// requesters returns the network's traffic requesters in registration
// order: the population every latency and retry figure is taken over.
func requesters(net *noc.Network) []*traffic.Requester {
	var reqs []*traffic.Requester
	for _, d := range net.Devices() {
		if r, ok := d.(*traffic.Requester); ok {
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// mergedLatency folds the latency samples of every requester on net into
// one population, sized once from their summed count. Samples are whole
// cycles, so the sum behind the mean is exact and the merge order moves
// no statistic.
func mergedLatency(net *noc.Network) *stats.Histogram {
	reqs := requesters(net)
	n := 0
	for _, r := range reqs {
		n += r.Latency.Count()
	}
	lat := &stats.Histogram{}
	lat.Grow(n)
	for _, r := range reqs {
		lat.Merge(&r.Latency)
	}
	return lat
}

// buildResult assembles the deterministic result record.
func buildResult(spec SimSpec, net *noc.Network, progress *simProgress, reg *metrics.Registry) *SimResult {
	lat := mergedLatency(net)
	res := &SimResult{
		Spec:           spec,
		Injected:       net.InjectedFlits,
		Delivered:      net.DeliveredFlits,
		Dropped:        net.DroppedFlits,
		Deflections:    net.Deflections,
		Hops:           net.TotalHops,
		DeliveredBytes: net.DeliveredBytes,
		LatencySamples: progress.latCount,
		LatencyFNV:     fmt.Sprintf("%#x", progress.latHash),
		Metrics:        stitchedMetrics(reg, progress.carried, spec, net.Ticks()),
	}
	if lat.Count() > 0 {
		res.LatencyMean = lat.Mean()
		res.LatencyP50 = lat.Percentile(50)
		res.LatencyP99 = lat.Percentile(99)
		res.LatencyMax = lat.Max()
	}
	return res
}
