package bti

import "math"

// applyPhase is the one CET update loop behind Device.ApplyObserved and
// BatchApply. It advances devs — distinct devices on one grid, and so with
// one Params — under condition c for dur seconds in min(maxSubstep,
// remaining) substeps, the device loop innermost. observe, when non-nil,
// is called about every observeEvery seconds and at the end of the phase
// with the elapsed in-phase time and the first device's total shift; only
// single-device calls pass one.
//
// Under stress every substep sweeps the occupancy and feeds the fused
// readout Σ weight·occ' to the permanent kinetics. Outside stress the
// permanent kinetics never read the occupancy (the generation term is
// zero), so k consecutive CET substeps collapse to one sweep at the
// combined duration — occ = pInf + (occ0−pInf)·decay^k with decay^k a
// single exponential — flushed at the end of the phase or at an
// observation. The permanent component still integrates at maxSubstep
// resolution: it is O(1) per substep and its coefficients depend on the
// evolving precursor density.
//
// Devices are mutually independent, so running them innermost cannot
// change any device's trajectory: a batch is bit-identical to applying
// each device alone.
func applyPhase(devs []*Device, c Condition, dur, observeEvery float64, observe func(t, shiftV float64)) {
	d0 := devs[0]
	u := phaseUpdate{
		g:         d0.grid,
		captureAF: d0.params.captureAccel(c),
		emitAF:    d0.params.emissionAccel(c),
		token:     d0.grid.phase.Add(1), // see kernel.go: promotion is cross-phase
		shared:    len(devs) > 1,
	}
	u.noop = u.captureAF <= 0 && u.emitAF <= 0
	stress := c.Stressing()
	observing := observe != nil && observeEvery > 0

	occLag := 0.0 // seconds the occupancy trails `elapsed` outside stress
	flush := func() {
		if occLag > 0 {
			k := u.kernelFor(occLag, 0)
			for _, d := range devs {
				u.sweep(k, d.occ, occLag)
			}
			occLag = 0
		}
	}

	elapsed := 0.0
	lastObserved := -1.0
	nextObserve := observeEvery
	for elapsed < dur {
		step := math.Min(maxSubstep, dur-elapsed)
		if observing && elapsed+step > nextObserve {
			step = nextObserve - elapsed
		}
		if step > 0 {
			if stress {
				k := u.kernelFor(step, dur-elapsed)
				for _, d := range devs {
					d.stepPermanent(c, u.emitAF, step, u.sweep(k, d.occ, step))
					d.age += step
				}
			} else {
				occLag += step
				for _, d := range devs {
					d.stepPermanent(c, u.emitAF, step, 0)
					d.age += step
				}
			}
			elapsed += step
		}
		if observing && elapsed >= nextObserve {
			flush()
			observe(elapsed, d0.ShiftV())
			lastObserved = elapsed
			nextObserve += observeEvery
			if nextObserve <= elapsed {
				// observeEvery underflows at this magnitude; no further
				// boundary is representable.
				nextObserve = math.Inf(1)
			}
		} else if step <= 0 {
			// Degenerate zero-length sub-phase from observation splitting
			// (floating-point boundary collision): nothing can advance.
			break
		}
	}
	flush()
	u.release()
	if observe != nil && lastObserved < dur {
		observe(dur, d0.ShiftV())
	}
}

// phaseUpdate resolves the CET update of one Apply phase: one condition,
// one grid, one phase token. The full-substep key (captureAF, emitAF,
// maxSubstep) is resolved once per phase — to the cached kernel if there
// is one, otherwise to a pooled scratch kernel when it will serve more than
// one sweep — so the substeps of a long phase pay no lock, no exponential
// and no division each. Other substep lengths (a phase's tail, a
// single-substep phase, a recovery flush) look the cache up once each and
// otherwise sweep separably, unless a batch shares the sweep.
type phaseUpdate struct {
	g                 *cetGrid
	captureAF, emitAF float64
	token             uint64
	shared            bool // more than one device sweeps each substep
	noop              bool // every rate is zero: sweeps leave occ as it is

	fullDone    bool          // the full-substep key is resolved
	full        *evolveKernel // its kernel, nil for separable sweeps
	fullScratch bool          // full is a pooled scratch kernel
	tail        *evolveKernel // pooled scratch for shared off-size substeps
}

// kernelFor returns the kernel that serves a substep of dt seconds, or nil
// when each device should sweep separably. remaining is the phase time
// left, this substep included; it decides whether an uncached full-substep
// key recurs within the phase.
func (u *phaseUpdate) kernelFor(dt, remaining float64) *evolveKernel {
	if u.noop {
		return nil
	}
	if dt == maxSubstep {
		if !u.fullDone {
			u.fullDone = true
			u.full = u.g.kernel(u.captureAF, u.emitAF, dt, u.token)
			if u.full == nil && (u.shared || remaining >= 2*maxSubstep) {
				u.full = u.g.scratchKernel(u.captureAF, u.emitAF, dt)
				u.fullScratch = true
			}
		}
		return u.full
	}
	if k := u.g.kernel(u.captureAF, u.emitAF, dt, u.token); k != nil {
		return k
	}
	if !u.shared || u.captureAF <= 0 {
		// A lone device, or a recovery sweep (occ·decayE, no divisions),
		// gains nothing from materialising a kernel.
		return nil
	}
	if u.tail == nil {
		u.tail = u.g.scratchKernel(u.captureAF, u.emitAF, dt)
	} else {
		u.g.fillKernel(u.tail, u.captureAF, u.emitAF, dt)
		metBatchScratchKernels.Inc()
	}
	return u.tail
}

// sweep advances occ by dt seconds through k (or separably when k is nil)
// and returns the new Σ weight·occ.
func (u *phaseUpdate) sweep(k *evolveKernel, occ []float64, dt float64) float64 {
	switch {
	case u.noop:
		return gridShift(u.g, occ)
	case k != nil:
		return kernelSweep(k, u.g.weight, occ)
	default:
		return separableSweep(u.g, occ, u.captureAF, u.emitAF, dt)
	}
}

// release returns the phase's scratch kernels to the grid's pool.
func (u *phaseUpdate) release() {
	if u.fullScratch {
		u.g.kernelScratch.Put(u.full)
	}
	if u.tail != nil {
		u.g.kernelScratch.Put(u.tail)
	}
}
