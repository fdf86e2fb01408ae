package baseline

// PendingCallbacks reports how many delivery callbacks the adapter is
// still holding for flits it expects to arrive.
func (m *MultiRing) PendingCallbacks() int { return len(m.pending) }
