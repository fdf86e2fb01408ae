package soc

import "chipletnoc/internal/metrics"

// EnableMetrics is s.Net.EnableMetrics; kept only because bench/ compiles
// against it.
func (s *ServerCPU) EnableMetrics(reg *metrics.Registry) { s.Net.EnableMetrics(reg) }
