package noc

// Congestion throttling (extension). Bufferless networks suffer
// congestion collapse: past saturation, deflected flits occupy slots
// without making progress, so goodput *falls* as load rises (Section
// 3.4.3 concedes "the bufferless method will reduce the available
// network bandwidth as all in-network flits consume wire fabric
// resources"). The throttle watches the network-wide deflection rate
// and, above a threshold, makes stations skip a fraction of injection
// opportunities until the deflection rate decays — source pacing, the
// standard remedy in the bufferless-NoC literature.

// ThrottleConfig tunes the congestion controller.
type ThrottleConfig struct {
	// Enabled turns the controller on.
	Enabled bool
	// WindowCycles is the deflection-rate sampling period.
	WindowCycles uint64
	// DeflectionsPerKCycle is the rate (per 1000 cycles) above which
	// injection backs off.
	DeflectionsPerKCycle uint64
	// SkipNumerator/SkipDenominator: while congested, each station skips
	// SkipNumerator of every SkipDenominator injection opportunities.
	SkipNumerator, SkipDenominator uint64
}

// DefaultThrottleConfig returns a conservative controller: back off by
// half above two deflections per thousand cycles per ring.
func DefaultThrottleConfig() ThrottleConfig {
	return ThrottleConfig{
		Enabled:              true,
		WindowCycles:         256,
		DeflectionsPerKCycle: 2000,
		SkipNumerator:        1,
		SkipDenominator:      2,
	}
}

// throttleState is the network-wide controller state.
type throttleState struct {
	cfg            ThrottleConfig
	windowStart    uint64 // tick count at window start
	deflectStart   uint64 // Deflections at window start
	congested      bool
	opportunitySeq uint64
}

// SetThrottle installs (or disables) the congestion controller.
func (n *Network) SetThrottle(cfg ThrottleConfig) {
	n.wakeAll()
	if !cfg.Enabled {
		n.throttle = nil
		return
	}
	if cfg.WindowCycles == 0 || cfg.SkipDenominator == 0 {
		panic("noc: invalid throttle config")
	}
	n.throttle = &throttleState{cfg: cfg}
}

// Congested reports whether the controller is currently backing off.
func (n *Network) Congested() bool {
	return n.throttle != nil && n.throttle.congested
}

// throttleTick updates the controller once per network cycle.
func (n *Network) throttleTick() {
	t := n.throttle
	if t == nil {
		return
	}
	if n.ticks-t.windowStart < t.cfg.WindowCycles {
		return
	}
	deflections := n.Deflections - t.deflectStart
	rate := deflections * 1000 / t.cfg.WindowCycles
	// Scale the threshold by ring count: each ring contributes its own
	// deflection budget.
	t.congested = rate > t.cfg.DeflectionsPerKCycle*uint64(len(n.rings))/4
	t.windowStart = n.ticks
	t.deflectStart = n.Deflections
}

// throttleSkip decides whether this injection opportunity is forfeited.
// Escape-lane (bypass) flits are never throttled: they are the deadlock
// resolution path.
func (n *Network) throttleSkip(ni *NodeInterface) bool {
	t := n.throttle
	if t == nil || !t.congested {
		return false
	}
	if ni.bypass.Len() > 0 {
		return false
	}
	t.opportunitySeq++
	return t.opportunitySeq%t.cfg.SkipDenominator < t.cfg.SkipNumerator
}
