//go:build chipoison

package chi

// poisonReleased: this build overwrites every released message, so a
// use after release panics or moves a digest (see poison_off.go).
const poisonReleased = true
