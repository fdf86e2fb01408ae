// Package config builds NoC systems from declarative JSON descriptions:
// rings, devices (traffic requesters and memory controllers) and ring
// bridges. It is the "Lego-like SoC" assembly workflow of Section 2.1 as
// a file format — cmd/nocsim -config runs one. The package checks only
// the spec language's own rules (see Spec.Build); whether the network is
// wired validly is the noc package's call, which Finalize reports.
//
// Example:
//
//	{
//	  "name": "my-soc",
//	  "rings": [
//	    {"name": "compute", "positions": 16, "full": true},
//	    {"name": "memory", "positions": 8}
//	  ],
//	  "devices": [
//	    {"name": "core0", "type": "requester", "ring": "compute", "position": 0,
//	     "outstanding": 16, "rate": 1.0, "readFraction": 0.8, "targets": ["hbm0"]},
//	    {"name": "hbm0", "type": "memory", "ring": "memory", "position": 0,
//	     "accessCycles": 60, "bytesPerCycle": 167, "queueDepth": 64}
//	  ],
//	  "bridges": [
//	    {"name": "br0", "type": "rbrg-l2",
//	     "stations": [{"ring": "compute", "position": 15}, {"ring": "memory", "position": 7}]}
//	  ]
//	}
package config

import (
	"encoding/json"
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/fault"
	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/traffic"
)

// RingSpec describes one ring.
type RingSpec struct {
	Name      string `json:"name"`
	Positions int    `json:"positions"`
	Full      bool   `json:"full"`
}

// StationRef names a station location.
type StationRef struct {
	Ring     string `json:"ring"`
	Position int    `json:"position"`
}

// DeviceSpec describes one endpoint device.
type DeviceSpec struct {
	Name     string `json:"name"`
	Type     string `json:"type"` // "requester" | "memory"
	Ring     string `json:"ring"`
	Position int    `json:"position"`

	// requester fields
	Outstanding  int      `json:"outstanding,omitempty"`
	Rate         float64  `json:"rate,omitempty"`
	ReadFraction float64  `json:"readFraction,omitempty"`
	LineBytes    int      `json:"lineBytes,omitempty"`
	Targets      []string `json:"targets,omitempty"`
	MaxRequests  uint64   `json:"maxRequests,omitempty"`
	// RetryTimeout/RetryMax arm CHI-level timeout and retry on this
	// requester (see chi.RetryConfig); zero timeout disables it.
	RetryTimeout int `json:"retryTimeout,omitempty"`
	RetryMax     int `json:"retryMax,omitempty"`

	// memory fields
	AccessCycles  int     `json:"accessCycles,omitempty"`
	BytesPerCycle float64 `json:"bytesPerCycle,omitempty"`
	QueueDepth    int     `json:"queueDepth,omitempty"`
}

// BridgeSpec describes one ring bridge.
type BridgeSpec struct {
	Name     string       `json:"name"`
	Type     string       `json:"type"` // "rbrg-l1" | "rbrg-l2"
	Stations []StationRef `json:"stations"`
}

// Spec is a whole system description.
type Spec struct {
	Name    string       `json:"name"`
	Seed    uint64       `json:"seed,omitempty"`
	Rings   []RingSpec   `json:"rings"`
	Devices []DeviceSpec `json:"devices"`
	Bridges []BridgeSpec `json:"bridges,omitempty"`
	// Faults is an optional deterministic fault schedule (see
	// internal/fault): bridge kills, station stalls, flit drops. An
	// absent or empty schedule changes nothing.
	Faults *fault.Schedule `json:"faults,omitempty"`
	// Partitions and Lookahead tuned a tick engine that no longer exists
	// and do nothing. Job records nocd stored while it existed carry the
	// keys, so Parse accepts and range-checks them; job normalization
	// (experiments.SimSpec.Normalize) drops them, so they are never echoed
	// or hashed.
	Partitions int `json:"partitions,omitempty"`
	Lookahead  int `json:"lookahead,omitempty"`
}

// Parse decodes a JSON spec.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if s.Partitions < -1 {
		return nil, fmt.Errorf("config: partitions must be -1 (auto) or non-negative, got %d", s.Partitions)
	}
	if s.Lookahead < 0 {
		return nil, fmt.Errorf("config: lookahead must be non-negative, got %d", s.Lookahead)
	}
	return &s, nil
}

// System is a built configuration ready to run.
type System struct {
	Net        *noc.Network
	Requesters map[string]*traffic.Requester
	Memories   map[string]*mem.Controller
	// Injector replays the spec's fault schedule (nil without one).
	Injector *fault.Injector
}

// Run advances the system n cycles.
func (s *System) Run(n int) {
	s.Net.Run(n)
}

// Construction limits. Untrusted specs (cmd/nocsim -config takes
// arbitrary files) must fail with an error before they can exhaust
// memory.
const (
	MaxRings         = 64
	MaxRingPositions = 4096
	MaxDevices       = 4096
	MaxBridges       = 256
	MaxBridgeLegs    = 16
	MaxOutstanding   = 1 << 16
	MaxLineBytes     = 1 << 20
	MaxQueueDepth    = 1 << 20
)

// Build checks the spec language's own rules and constructs the network;
// it never panics on untrusted input. A badly wired network — a ring
// under 2 positions, a station outside its ring, two bridge legs on one
// ring, an unreachable node — is refused by the noc package's Finalize.
func (s *Spec) Build() (*System, error) {
	// The system name travels in checkpoints.
	if s.Name == "" {
		return nil, fmt.Errorf("config: system needs a name")
	}
	if len(s.Name) > noc.MaxNameBytes {
		return nil, fmt.Errorf("config: system name of %d bytes exceeds the limit of %d", len(s.Name), noc.MaxNameBytes)
	}
	if len(s.Rings) > MaxRings {
		return nil, fmt.Errorf("config: %d rings exceeds the limit of %d", len(s.Rings), MaxRings)
	}
	if len(s.Devices) > MaxDevices {
		return nil, fmt.Errorf("config: %d devices exceeds the limit of %d", len(s.Devices), MaxDevices)
	}
	if len(s.Bridges) > MaxBridges {
		return nil, fmt.Errorf("config: %d bridges exceeds the limit of %d", len(s.Bridges), MaxBridges)
	}
	net := noc.NewNetwork(s.Name)
	rings := make(map[string]*noc.Ring, len(s.Rings))
	for _, r := range s.Rings {
		if r.Name == "" {
			return nil, fmt.Errorf("config: ring needs a name")
		}
		if _, dup := rings[r.Name]; dup {
			return nil, fmt.Errorf("config: duplicate ring %q", r.Name)
		}
		if r.Positions > MaxRingPositions {
			return nil, fmt.Errorf("config: ring %q has %d positions, limit is %d",
				r.Name, r.Positions, MaxRingPositions)
		}
		rings[r.Name] = net.AddRing(r.Positions, r.Full)
	}

	// Each station hosts exactly one endpoint (device or bridge leg): a
	// second attachment at the same (ring, position) is a spec error.
	occupied := map[StationRef]string{}
	station := func(ref StationRef, owner string) (*noc.CrossStation, error) {
		ring, ok := rings[ref.Ring]
		if !ok {
			return nil, fmt.Errorf("config: unknown ring %q", ref.Ring)
		}
		if prev, dup := occupied[ref]; dup {
			return nil, fmt.Errorf("config: %s and %s both attach at ring %q position %d",
				prev, owner, ref.Ring, ref.Position)
		}
		occupied[ref] = owner
		return ring.AddStation(ref.Position), nil
	}

	sys := &System{
		Net:        net,
		Requesters: make(map[string]*traffic.Requester),
		Memories:   make(map[string]*mem.Controller),
	}

	// Memories first so requesters can reference them by name.
	type pendingRequester struct {
		spec DeviceSpec
		st   *noc.CrossStation
	}
	var pending []pendingRequester
	seen := map[string]bool{}
	for _, d := range s.Devices {
		if seen[d.Name] {
			return nil, fmt.Errorf("config: duplicate device %q", d.Name)
		}
		seen[d.Name] = true
		st, err := station(StationRef{Ring: d.Ring, Position: d.Position}, "device "+d.Name)
		if err != nil {
			return nil, fmt.Errorf("config: device %q: %w", d.Name, err)
		}
		switch d.Type {
		case "memory":
			cfg := mem.Config{
				AccessCycles:  d.AccessCycles,
				BytesPerCycle: d.BytesPerCycle,
				QueueDepth:    d.QueueDepth,
			}
			if cfg.AccessCycles <= 0 || cfg.BytesPerCycle <= 0 || cfg.QueueDepth <= 0 {
				return nil, fmt.Errorf("config: memory %q needs accessCycles, bytesPerCycle and queueDepth", d.Name)
			}
			if cfg.QueueDepth > MaxQueueDepth {
				return nil, fmt.Errorf("config: memory %q queueDepth %d exceeds the limit of %d",
					d.Name, cfg.QueueDepth, MaxQueueDepth)
			}
			sys.Memories[d.Name] = mem.New(net, d.Name, cfg, st)
		case "requester":
			pending = append(pending, pendingRequester{spec: d, st: st})
		default:
			return nil, fmt.Errorf("config: device %q has unknown type %q", d.Name, d.Type)
		}
	}
	rng := sim.NewRNG(s.Seed ^ 0xC0F1)
	for i, p := range pending {
		d := p.spec
		if len(d.Targets) == 0 {
			return nil, fmt.Errorf("config: requester %q needs targets", d.Name)
		}
		nodes := make([]noc.NodeID, 0, len(d.Targets))
		for _, tname := range d.Targets {
			m, ok := sys.Memories[tname]
			if !ok {
				return nil, fmt.Errorf("config: requester %q targets unknown memory %q", d.Name, tname)
			}
			nodes = append(nodes, m.Node())
		}
		if d.Outstanding <= 0 {
			d.Outstanding = 8
		}
		if d.Outstanding > MaxOutstanding {
			return nil, fmt.Errorf("config: requester %q outstanding %d exceeds the limit of %d",
				d.Name, d.Outstanding, MaxOutstanding)
		}
		if d.Rate <= 0 {
			d.Rate = 1
		}
		line := d.LineBytes
		if line <= 0 {
			line = 64
		}
		if line > MaxLineBytes {
			return nil, fmt.Errorf("config: requester %q lineBytes %d exceeds the limit of %d",
				d.Name, line, MaxLineBytes)
		}
		if d.RetryTimeout < 0 || d.RetryMax < 0 {
			return nil, fmt.Errorf("config: requester %q has negative retry settings", d.Name)
		}
		rc := traffic.RequesterConfig{
			Outstanding:  d.Outstanding,
			Rate:         d.Rate,
			ReadFraction: d.ReadFraction,
			LineBytes:    line,
			MaxRequests:  d.MaxRequests,
			Stream:       traffic.NewSeqStream(uint64(i)<<28+uint64(i*line), uint64(line), 1<<24),
			TargetOf:     traffic.InterleavedTargetsBy(nodes, line),
			Retry:        chi.RetryConfig{TimeoutCycles: d.RetryTimeout, MaxRetries: d.RetryMax},
		}
		sys.Requesters[d.Name] = traffic.NewRequester(net, d.Name, rc, rng.Derive(uint64(i)), p.st)
	}

	for _, b := range s.Bridges {
		if seen[b.Name] {
			return nil, fmt.Errorf("config: duplicate name %q", b.Name)
		}
		seen[b.Name] = true
		if len(b.Stations) < 2 {
			return nil, fmt.Errorf("config: bridge %q needs at least 2 stations", b.Name)
		}
		if len(b.Stations) > MaxBridgeLegs {
			return nil, fmt.Errorf("config: bridge %q has %d stations, limit is %d",
				b.Name, len(b.Stations), MaxBridgeLegs)
		}
		sts := make([]*noc.CrossStation, 0, len(b.Stations))
		for _, ref := range b.Stations {
			st, err := station(ref, "bridge "+b.Name)
			if err != nil {
				return nil, fmt.Errorf("config: bridge %q: %w", b.Name, err)
			}
			sts = append(sts, st)
		}
		switch b.Type {
		case "rbrg-l1":
			noc.NewRBRGL1(net, b.Name, noc.DefaultRBRGL1Config(), sts...)
		case "rbrg-l2":
			if len(sts) != 2 {
				return nil, fmt.Errorf("config: rbrg-l2 %q needs exactly 2 stations", b.Name)
			}
			noc.NewRBRGL2(net, b.Name, noc.DefaultRBRGL2Config(), sts[0], sts[1])
		default:
			return nil, fmt.Errorf("config: bridge %q has unknown type %q", b.Name, b.Type)
		}
	}

	if err := net.Finalize(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if !s.Faults.Empty() {
		inj, err := fault.NewInjector(net, s.Faults, s.Seed)
		if err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		sys.Injector = inj
	}
	return sys, nil
}
