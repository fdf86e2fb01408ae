package sim

// RNG is a SplitMix64 pseudo-random generator. Every stochastic component
// owns its own RNG seeded from a master seed plus a stable component index,
// so adding or removing one component never perturbs the random streams of
// the others — a property plain math/rand sharing would not give us.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Derive returns a new independent generator for a child component; the
// salt should be a stable identifier (index, hash of name).
func (r *RNG) Derive(salt uint64) *RNG {
	return NewRNG(mix(r.state ^ mix(salt)))
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value uniform in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value uniform in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm shuffles p in place: one Intn(i+1) draw for each i from len(p)-1
// down to 1, swapping p[i] with the drawn index (Fisher-Yates). Applied
// to 0, 1, ..., n-1 it leaves a pseudo-random permutation of [0, n); the
// caller owns the slice, so a shuffle allocates nothing.
func (r *RNG) Perm(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
