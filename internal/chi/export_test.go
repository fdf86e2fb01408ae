package chi

// SetRecycle switches message recycling on or off: off, NewMsg always
// allocates and Release does nothing — the reference the pooled runs are
// compared against.
func SetRecycle(on bool) { recycle = on }
