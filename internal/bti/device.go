package bti

import (
	"fmt"
	"math"
)

// Device is one BTI-aging transistor population (a gate, a standard-cell
// block, a core — any granularity at which a single stress history applies).
// It tracks the recoverable CET trap occupancy plus the two-stage permanent
// component. A fresh Device has zero threshold shift.
//
// Device is not safe for concurrent use; clone per goroutine.
type Device struct {
	params Params
	grid   *cetGrid
	occ    []float64 // CET occupancy, [0,1] per cell

	precursorV float64 // P1: annealable permanent precursor (V)
	lockedV    float64 // P2: locked permanent component (V)

	age float64 // accumulated simulated seconds
}

// NewDevice builds a fresh device from the given parameters.
func NewDevice(p Params) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newDeviceOnGrid(p, acquireGrid(p)), nil
}

// newDeviceOnGrid assembles a device over an already-built grid — either a
// shared cache entry (NewDevice) or a private grid (population variation
// draws, which must not churn the shared cache). Params must be validated
// by the caller.
func newDeviceOnGrid(p Params, g *cetGrid) *Device {
	return &Device{params: p, grid: g, occ: make([]float64, p.GridCapture*p.GridEmission)}
}

// MustNewDevice is NewDevice for known-good parameters; it panics on error.
// Intended for package defaults and tests.
func MustNewDevice(p Params) *Device {
	d, err := NewDevice(p)
	if err != nil {
		panic(fmt.Sprintf("bti: %v", err))
	}
	return d
}

// Params returns the device's parameter set.
func (d *Device) Params() Params { return d.params }

// ShiftV returns the total threshold-voltage shift in volts.
func (d *Device) ShiftV() float64 {
	return gridShift(d.grid, d.occ) + d.precursorV + d.lockedV
}

// RecoverableV returns the trap-ensemble (recoverable) part of the shift.
func (d *Device) RecoverableV() float64 { return gridShift(d.grid, d.occ) }

// PermanentV returns the permanent part of the shift (precursor + locked).
func (d *Device) PermanentV() float64 { return d.precursorV + d.lockedV }

// LockedV returns only the locked, non-annealable part of the shift.
func (d *Device) LockedV() float64 { return d.lockedV }

// Age returns the total simulated time the device has lived, in seconds.
func (d *Device) Age() float64 { return d.age }

// Clone returns an independent copy sharing the immutable CET grid; the
// copy holds its own cache reference.
func (d *Device) Clone() *Device {
	c := *d
	c.occ = append([]float64(nil), d.occ...)
	if d.grid != nil {
		reacquireGrid(d.params, d.grid)
	}
	return &c
}

// Release drops the device's reference on the shared CET-grid cache so an
// idle corner's grid can be recycled once every holder is gone. The device
// must not be used afterwards. Short-lived devices may skip Release — their
// grids merely stay pinned, which is the pre-refcounting behaviour.
func (d *Device) Release() {
	if d.grid == nil {
		return
	}
	releaseGrid(d.params, d.grid)
	d.grid = nil
}

// Reset returns the device to the fresh state.
func (d *Device) Reset() {
	for i := range d.occ {
		d.occ[i] = 0
	}
	d.precursorV, d.lockedV, d.age = 0, 0, 0
}

// maxSubstep bounds the integration step so the permanent-component
// kinetics (whose generation term depends on the evolving occupancy) stay
// accurate across long phases.
const maxSubstep = 900 // seconds

// Apply evolves the device under condition c for dur seconds.
func (d *Device) Apply(c Condition, dur float64) {
	d.ApplyObserved(c, dur, 0, nil)
}

// ApplyObserved evolves the device under condition c for dur seconds,
// invoking observe (if non-nil) about every observeEvery seconds and at the
// end of the phase with the elapsed in-phase time and total shift.
func (d *Device) ApplyObserved(c Condition, dur float64, observeEvery float64, observe func(t, shiftV float64)) {
	if dur <= 0 {
		return
	}
	applyPhase([]*Device{d}, c, dur, observeEvery, observe)
}

// stepPermanent advances the precursor/locked kinetics by dt seconds.
// recoverableV is the device's current Σ weight·occ (gridShift); only a
// stressing condition reads it.
//
// During stress, occupied traps generate precursors at a rate scaled by the
// stress acceleration (saturating as the permanent pool fills); precursors
// convert to locked defects with a density-dependent hazard — the sparser
// the precursor population, the slower the locking, which is why in-time
// scheduled recovery eliminates the permanent component (Fig. 4); under
// recovery the emission acceleration anneals precursors (but never locked
// defects).
func (d *Device) stepPermanent(c Condition, emitAF, dt, recoverableV float64) {
	p := d.params
	var gen float64
	if c.Stressing() {
		occ := 0.0 // weight-averaged occupancy in [0, 1]
		if p.MaxShiftV > 0 {
			occ = recoverableV / p.MaxShiftV
		}
		sat := 1 - (d.precursorV+d.lockedV)/p.PermanentMaxV
		if sat < 0 {
			sat = 0
		}
		gen = p.GenRateVPerSec * occ * sat * p.captureAccel(c)
	}
	density := d.precursorV / p.PrecursorScaleV
	if density > 3 {
		density = 3
	}
	convRate := density / p.ConvertTau
	annealRate := 0.0
	if !c.Stressing() {
		annealRate = emitAF / p.AnnealTau0
	}
	totalRate := convRate + annealRate
	// Linear ODE with frozen coefficients over the (short) substep:
	//   P1' = gen − totalRate·P1
	// For a near-zero removal rate the exponential form suffers
	// catastrophic cancellation (pInf explodes), so fall back to the
	// first-order expansion there.
	var p1New float64
	if totalRate*dt < 1e-9 {
		p1New = d.precursorV + (gen-totalRate*d.precursorV)*dt
	} else {
		pInf := gen / totalRate
		p1New = pInf + (d.precursorV-pInf)*math.Exp(-totalRate*dt)
	}
	// Mass balance: generated − ΔP1 splits between conversion and anneal
	// in proportion to their rates.
	generated := gen * dt
	removed := generated - (p1New - d.precursorV)
	if removed < 0 {
		removed = 0
	}
	if totalRate > 0 {
		d.lockedV += removed * convRate / totalRate
	}
	d.precursorV = p1New
}

// RecoveryFraction runs the paper's Table I protocol on a copy of the
// receiver: measure the shift now, recover under cond for dur seconds, and
// report (before − after)/before. The receiver is not modified.
func (d *Device) RecoveryFraction(cond Condition, dur float64) float64 {
	before := d.ShiftV()
	if before <= 0 {
		return 0
	}
	c := d.Clone()
	defer c.Release()
	c.Apply(cond, dur)
	return (before - c.ShiftV()) / before
}
