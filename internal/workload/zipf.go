package workload

// Zipf access patterns: the skew axis of the client load generator
// (dcload -zipf) and of the live ring's evicting-cache test. A Zipf(θ)
// draw over n keys picks key k with probability proportional to
// 1/(k+1)^θ — θ=0 is uniform, θ≈1 concentrates most of the mass on a
// small head, the regime the paper's LOI hot-set economy serves.
// The generator is a precomputed CDF walked by binary search: exact
// for every θ >= 0 (math/rand's built-in Zipf requires s > 1 and a
// different parameterization), deterministic under a seeded rand.Rand,
// and O(log n) per draw.

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf draws keys in [0, n) with P(k) ∝ 1/(k+1)^theta.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf(theta) distribution over n keys. theta = 0
// degenerates to uniform; negative theta is clamped to 0.
func NewZipf(n int, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	if theta < 0 {
		theta = 0
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}
}

// N reports the key-space size.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw picks one key using rng.
func (z *Zipf) Draw(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Mass reports the total probability mass of the top m keys (the head
// of the distribution) — what the shape tests assert skew against.
func (z *Zipf) Mass(m int) float64 {
	if m <= 0 {
		return 0
	}
	if m >= len(z.cdf) {
		return 1
	}
	return z.cdf[m-1]
}

// ZipfPick adapts a Zipf draw to the SyntheticConfig.Pick contract, so
// the simulator's query streams can run skewed access patterns next to
// the §5.3 Gaussian one.
func ZipfPick(n int, theta float64) func(*rand.Rand) int {
	z := NewZipf(n, theta)
	return func(rng *rand.Rand) int { return z.Draw(rng) }
}
