// Package dp implements the differential-privacy extension discussed in
// Section 7: before publishing, each server adds noise to its accumulator so
// that the released aggregate is differentially private even though Prio
// itself computes exact sums. Because every server adds its own noise and
// accumulators are only ever revealed in sum, no single server sees the
// un-noised aggregate as long as one server is honest (the Dwork et al.
// distributed-noise approach the paper cites).
//
// Noise is two-sided geometric (discrete Laplace), the standard integer
// mechanism: adding Z with Pr[Z = k] ∝ exp(−|k|/b), b = Δ/ε, gives
// ε-differential privacy for sensitivity-Δ counts. With s servers each
// adding independent noise the released value carries s noise draws; the
// guarantee degrades gracefully and holds with parameter ε provided at
// least one server's noise survives.
package dp

import (
	"crypto/rand"
	"errors"
	"io"
	"math"
	"math/big"

	"prio/internal/field"
)

// Params configures the mechanism.
type Params struct {
	// Epsilon is the privacy budget per released component.
	Epsilon float64
	// Sensitivity is the most one client can change a component (1 for
	// counts and histograms; 2^b for b-bit sums).
	Sensitivity float64
}

// Valid reports whether the parameters are usable.
func (p Params) Valid() error {
	if p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) {
		return errors.New("dp: epsilon must be positive and finite")
	}
	if p.Sensitivity <= 0 {
		return errors.New("dp: sensitivity must be positive")
	}
	return nil
}

// SampleDiscreteLaplace draws Z with Pr[Z = k] ∝ exp(−|k|·ε/Δ) as the
// difference of two geometric variables, using rejection-free inverse
// sampling from rnd (crypto/rand if nil).
func SampleDiscreteLaplace(rnd io.Reader, p Params) (int64, error) {
	if err := p.Valid(); err != nil {
		return 0, err
	}
	if rnd == nil {
		rnd = rand.Reader
	}
	alpha := math.Exp(-p.Epsilon / p.Sensitivity) // geometric parameter
	g1, err := sampleGeometric(rnd, alpha)
	if err != nil {
		return 0, err
	}
	g2, err := sampleGeometric(rnd, alpha)
	if err != nil {
		return 0, err
	}
	return g1 - g2, nil
}

// sampleGeometric draws G ≥ 0 with Pr[G = k] = (1−α)α^k by inverse CDF over
// a uniform 53-bit draw.
func sampleGeometric(rnd io.Reader, alpha float64) (int64, error) {
	u, err := uniform53(rnd)
	if err != nil {
		return 0, err
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	// G = floor(log(1-u) / log(alpha))
	g := math.Floor(math.Log1p(-u) / math.Log(alpha))
	if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
		return 0, nil
	}
	if g > math.MaxInt32 {
		g = math.MaxInt32 // tail clamp; probability astronomically small
	}
	return int64(g), nil
}

// uniform53 draws a uniform float in [0, 1) with 53 bits of precision.
func uniform53(rnd io.Reader) (float64, error) {
	max := new(big.Int).Lsh(big.NewInt(1), 53)
	v, err := rand.Int(rnd, max)
	if err != nil {
		return 0, err
	}
	f, _ := new(big.Float).SetInt(v).Float64()
	return f / float64(1<<53), nil
}

// NoiseVector samples one discrete-Laplace noise value per aggregate
// component, mapped into the field (negative noise becomes p − |z|). A
// server adds the result to its share of a window when it seals it (see
// core.Server.SetWindowNoise).
func NoiseVector[Fd field.Field[E], E any](f Fd, rnd io.Reader, k int, p Params) ([]E, error) {
	out := make([]E, k)
	for i := range out {
		z, err := SampleDiscreteLaplace(rnd, p)
		if err != nil {
			return nil, err
		}
		out[i] = f.FromInt64(z)
	}
	return out, nil
}
