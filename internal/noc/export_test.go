package noc

// ForceAwake switches n to the reference engine — every ring, station and
// device ticked every cycle, the clock never jumped — for the external
// differential suite in gate_diff_test.go, which calls it on a freshly
// built network. It exists only in test
// builds: production code has no way to turn the activity gate off.
func (n *Network) ForceAwake() { n.forceAwake = true }
