package metrics

import (
	"encoding/json"
	"fmt"
	"io"
)

// SeriesSnapshot is one series' full trajectory in a snapshot.
type SeriesSnapshot struct {
	Name   string    `json:"name"`
	Cycles []uint64  `json:"cycles"`
	Values []float64 `json:"values"`
}

// Snapshot is a deterministic point-in-time export of a registry:
// counters and gauges read now, series as sampled so far. Marshalling a
// Snapshot yields byte-identical output for identical runs (map keys are
// rendered sorted, series keep registration order).
type Snapshot struct {
	System   string             `json:"system,omitempty"`
	Cycles   uint64             `json:"cycles"`
	Interval uint64             `json:"interval"`
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Series   []SeriesSnapshot   `json:"series"`
}

// Snapshot reads every instrument and returns the export structure.
// system labels the run; cycles is the simulated time it covers.
func (r *Registry) Snapshot(system string, cycles uint64) *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		System:   system,
		Cycles:   cycles,
		Interval: r.interval,
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
	}
	for _, c := range r.counters {
		s.Counters[c.name] = c.read()
	}
	for _, g := range r.gauges {
		s.Gauges[g.name] = g.read()
	}
	for _, sr := range r.series {
		cs := make([]uint64, len(sr.cycles))
		copy(cs, sr.cycles)
		vs := make([]float64, len(sr.values))
		copy(vs, sr.values)
		s.Series = append(s.Series, SeriesSnapshot{Name: sr.name, Cycles: cs, Values: vs})
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON with a trailing
// newline (encoding/json sorts map keys, keeping output deterministic).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
