//go:build !chipoison

package chi

// poisonReleased is set by building with -tags chipoison: Release then
// overwrites every message it takes back with poisoned.
const poisonReleased = false
