package em

import (
	"fmt"
	"math"

	"deepheal/internal/faultinject"
	"deepheal/internal/mathx"
	"deepheal/internal/units"
)

// End identifies one extremity of the wire.
type End int

// Wire ends. Under a positive current density the electron wind depletes
// atoms at EndCathode, which is where the first void nucleates.
const (
	EndCathode End = iota // x = 0
	EndAnode              // x = L
)

// voidState tracks one end's void.
type voidState struct {
	open    bool    // a void is currently open (free-surface boundary)
	lenM    float64 // current void length
	maxLenM float64 // historical maximum (drives permanent damage)
	permM   float64 // unhealable floor from interface damage
}

// Wire is one EM-stressed metal line. It holds the discretised Korhonen
// stress profile plus the void state at both ends. A fresh Wire is
// stress-free. Wire is not safe for concurrent use.
type Wire struct {
	params Params
	sigma  []float64 // stress at nodes 0..N-1, σ-units
	dx     float64
	voids  [2]voidState
	broken bool
	time   float64 // simulated seconds

	// scratch for the tridiagonal solve; sol receives the new profile and
	// is copied into sigma only when the solve succeeds
	lower, diag, upper, rhs, cp, sol []float64
}

// NewWire builds a fresh wire from the parameters.
func NewWire(p Params) (*Wire, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.NumNodes
	return &Wire{
		params: p,
		sigma:  make([]float64, n),
		dx:     p.LengthM / float64(n-1),
		lower:  make([]float64, n),
		diag:   make([]float64, n),
		upper:  make([]float64, n),
		rhs:    make([]float64, n),
		cp:     make([]float64, n),
		sol:    make([]float64, n),
	}, nil
}

// MustNewWire is NewWire for known-good parameters; it panics on error.
func MustNewWire(p Params) *Wire {
	w, err := NewWire(p)
	if err != nil {
		panic(fmt.Sprintf("em: %v", err))
	}
	return w
}

// Params returns the wire's parameter set.
func (w *Wire) Params() Params { return w.params }

// Time returns the accumulated simulated seconds.
func (w *Wire) Time() float64 { return w.time }

// Broken reports whether the wire has failed open.
func (w *Wire) Broken() bool { return w.broken }

// Nucleated reports whether a void has ever nucleated at the given end.
func (w *Wire) Nucleated(e End) bool {
	return w.voids[e].open || w.voids[e].maxLenM > 0
}

// VoidLength returns the current void length at the given end in metres.
func (w *Wire) VoidLength(e End) float64 { return w.voids[e].lenM }

// PermanentVoidLength returns the unhealable void floor at the given end.
func (w *Wire) PermanentVoidLength(e End) float64 { return w.voids[e].permM }

// StressProfile returns a copy of the normalised stress profile.
func (w *Wire) StressProfile() []float64 {
	out := make([]float64, len(w.sigma))
	copy(out, w.sigma)
	return out
}

// MaxStress returns the largest tensile stress anywhere on the wire.
func (w *Wire) MaxStress() float64 {
	m := w.sigma[0]
	for _, s := range w.sigma[1:] {
		if s > m {
			m = s
		}
	}
	return m
}

// TotalStress returns the integral of σ over the wire (σ-units·m); with
// blocked ends and no voids it is a conserved quantity of the PDE.
func (w *Wire) TotalStress() float64 {
	xs := make([]float64, len(w.sigma))
	for i := range xs {
		xs[i] = float64(i) * w.dx
	}
	return mathx.Trapezoid(xs, w.sigma)
}

// Resistance returns the wire resistance at temperature t, including the
// void-induced increase. A broken wire reports +Inf.
func (w *Wire) Resistance(t units.Temperature) float64 {
	if w.broken {
		return math.Inf(1)
	}
	r := w.params.Resistance0(t)
	r += w.params.RPerVoidLenOhmPerM * (w.voids[0].lenM + w.voids[1].lenM)
	return r
}

// Clone returns an independent copy of the wire.
func (w *Wire) Clone() *Wire {
	c := MustNewWire(w.params)
	copy(c.sigma, w.sigma)
	c.voids = w.voids
	c.broken = w.broken
	c.time = w.time
	return c
}

// Reset restores the wire to the fresh state.
func (w *Wire) Reset() {
	for i := range w.sigma {
		w.sigma[i] = 0
	}
	w.voids = [2]voidState{}
	w.broken = false
	w.time = 0
}

// Step advances the wire by dt seconds under the given signed current
// density and temperature. Positive j drives atoms away from EndCathode.
// Stepping a broken wire is a no-op. A non-nil error means the implicit
// solve failed and the wire state is unchanged — the caller may retry,
// shrink dt, or abandon this wire without poisoning anything else.
func (w *Wire) Step(j units.CurrentDensity, temp units.Temperature, dt float64) error {
	if w.broken || dt <= 0 {
		return nil
	}
	p := w.params
	kappa := p.kappa(temp)
	g := p.drive(j)
	if err := w.implicitStep(kappa, g, dt); err != nil {
		return err
	}
	if y := p.CompressiveYield; y > 0 {
		// Plastic relaxation: compressive stress beyond the yield point is
		// relieved by hillock formation rather than stored elastically.
		for i, s := range w.sigma {
			if s < -y {
				w.sigma[i] = -y
			}
		}
	}
	w.updateVoids(kappa, g, dt)
	w.time += dt
	return nil
}

// implicitStep performs one backward-Euler step of the Korhonen equation.
//
// Interior nodes see pure diffusion (the wind term is divergence-free for a
// uniform wire); the wind enters through the end boundary conditions:
// blocked ends enforce zero atomic flux ∂σ/∂x = −G, voided ends are free
// surfaces with σ = 0.
func (w *Wire) implicitStep(kappa, g, dt float64) error {
	n := len(w.sigma)
	r := kappa * dt / (w.dx * w.dx)

	for i := 1; i < n-1; i++ {
		w.lower[i] = -r
		w.diag[i] = 1 + 2*r
		w.upper[i] = -r
		w.rhs[i] = w.sigma[i]
	}
	// End 0 (EndCathode).
	if w.voids[0].open {
		w.lower[0], w.diag[0], w.upper[0], w.rhs[0] = 0, 1, 0, 0
	} else {
		// Ghost node from ∂σ/∂x = −G: σ(-1) = σ(1) + 2·dx·G.
		w.lower[0] = 0
		w.diag[0] = 1 + 2*r
		w.upper[0] = -2 * r
		w.rhs[0] = w.sigma[0] + 2*r*w.dx*g
	}
	// End 1 (EndAnode).
	if w.voids[1].open {
		w.lower[n-1], w.diag[n-1], w.upper[n-1], w.rhs[n-1] = 0, 1, 0, 0
	} else {
		// Ghost node from ∂σ/∂x = −G: σ(n) = σ(n-2) − 2·dx·G.
		w.lower[n-1] = -2 * r
		w.diag[n-1] = 1 + 2*r
		w.upper[n-1] = 0
		w.rhs[n-1] = w.sigma[n-1] - 2*r*w.dx*g
	}
	if err := faultinject.ErrorAt(faultinject.SiteEMTridiag, ""); err != nil {
		return fmt.Errorf("em: tridiagonal solve failed: %w", err)
	}
	if err := mathx.SolveTridiagInto(w.sol, w.cp, w.lower, w.diag, w.upper, w.rhs); err != nil {
		// The BE system is strictly diagonally dominant for physical
		// parameters, but degenerate inputs (NaN temperature, a corrupted
		// restore) can still break the factorisation; surface that as an
		// error instead of crashing the whole campaign. σ is untouched.
		return fmt.Errorf("em: tridiagonal solve failed: %w", err)
	}
	copy(w.sigma, w.sol)
	return nil
}

// updateVoids nucleates, grows, heals and (if damage was done) floors the
// voids at both ends, then checks for wire breakage.
func (w *Wire) updateVoids(kappa, g, dt float64) {
	n := len(w.sigma)
	p := w.params

	// Nucleation: an end whose tensile stress reaches the critical value
	// opens a void and relaxes to a free surface.
	if !w.voids[0].open && w.sigma[0] >= p.SigmaCrit {
		w.voids[0].open = true
		w.sigma[0] = 0
	}
	if !w.voids[1].open && w.sigma[n-1] >= p.SigmaCrit {
		w.voids[1].open = true
		w.sigma[n-1] = 0
	}

	// Growth/healing from the atomic flux at the void surface. Healing
	// (negative flux) is boosted: re-filling proceeds by fast surface
	// diffusion along the void faces.
	if w.voids[0].open {
		slope := (w.sigma[1] - w.sigma[0]) / w.dx
		driveFlux := kappa * (g + slope)
		if driveFlux < 0 {
			driveFlux *= p.HealBoost
		}
		w.growVoid(&w.voids[0], p.VoidRate*driveFlux*dt)
	}
	if w.voids[1].open {
		// Mirror of end 0: atoms flowing in +x arrive at the anode void and
		// fill it, so the growth drive flips both the wind and the slope.
		slope := (w.sigma[n-2] - w.sigma[n-1]) / w.dx
		driveFlux := kappa * (-g + slope)
		if driveFlux < 0 {
			driveFlux *= p.HealBoost
		}
		w.growVoid(&w.voids[1], p.VoidRate*driveFlux*dt)
	}

	if w.voids[0].lenM >= p.LvBreakM || w.voids[1].lenM >= p.LvBreakM {
		w.broken = true
	}
}

// growVoid applies a signed length increment to a void, maintaining the
// damage floor and closing the void entirely when it heals to zero.
func (w *Wire) growVoid(v *voidState, delta float64) {
	v.lenM += delta
	if v.lenM > v.maxLenM {
		v.maxLenM = v.lenM
		if over := v.maxLenM - w.params.LvThreshM; over > 0 {
			v.permM = w.params.DamageEta * over
		}
	}
	if v.lenM < v.permM {
		v.lenM = v.permM
	}
	if v.lenM <= 0 {
		v.lenM = 0
		v.open = false // fully healed: the end is a blocked boundary again
	}
}
