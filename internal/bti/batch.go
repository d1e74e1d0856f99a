package bti

import "math"

// BatchApply evolves every device in devs under condition c for dur seconds.
// It is equivalent to — and bit-identical with — calling d.Apply(c, dur) on
// each device in order, but devices sharing a CET grid are advanced together, substep by substep:
//
//   - When the condition key has a cached kernel, the cache is consulted once
//     per substep for the whole group instead of once per device.
//   - When it does not (the fleet-realistic case: per-tile temperatures from
//     a warm-started thermal solve never repeat bitwise, so keys never
//     recur), the fused per-cell kernel is materialised once into pooled
//     scratch and every device sweeps through it — the per-device separable
//     sweep would redo the O(nc·ne) rate divisions for each device.
//
// Bit-identity holds because a materialised kernel and the separable sweep
// apply identical operations in identical order (the invariant documented in
// kernel.go), and devices are mutually independent, so regrouping the
// (device × substep) loop nest cannot change any device's trajectory.
//
// Devices must be distinct: a device listed twice would see its permanent
// kinetics interleaved at substep rather than phase granularity. The call is
// not safe for concurrent use of the listed devices.
func BatchApply(devs []*Device, c Condition, dur float64) {
	if dur <= 0 || len(devs) == 0 {
		return
	}
	if len(devs) == 1 {
		devs[0].Apply(c, dur)
		return
	}
	// Group by grid in first-seen order. Grid identity implies equal Params
	// — the shared cache keys grids by Params, and a private grid is only
	// ever shared among clones — so each group has one pair of acceleration
	// factors.
	groups := make(map[*cetGrid][]*Device, 4)
	order := make([]*cetGrid, 0, 4)
	for _, d := range devs {
		if _, ok := groups[d.grid]; !ok {
			order = append(order, d.grid)
		}
		groups[d.grid] = append(groups[d.grid], d)
	}
	for _, g := range order {
		group := groups[g]
		if len(group) == 1 {
			// A singleton gains nothing from kernel materialisation; the
			// plain path's separable sweep is strictly cheaper.
			group[0].Apply(c, dur)
			continue
		}
		metBatchGroups.Inc()
		metBatchDevices.Add(uint64(len(group)))
		batchApplyGroup(group, c, dur)
	}
}

// batchApplyGroup advances one same-grid group. It replicates the exact
// substep sequence of Device.ApplyObserved with a nil observer —
// min(maxSubstep, remaining) chunks, the closed-form fast path for
// non-stressing conditions, permanent kinetics per substep — with the device
// loop innermost.
func batchApplyGroup(devs []*Device, c Condition, dur float64) {
	occs := make([][]float64, len(devs))
	for i, d := range devs {
		occs[i] = d.occ
	}
	d0 := devs[0]
	captureAF := d0.params.captureAccel(c)
	emitAF := d0.params.emissionAccel(c)
	grid := d0.grid
	phase := grid.phase.Add(1) // one phase token for the whole batch

	// Fast path: see ApplyObserved — outside stress the permanent kinetics
	// never read the occupancy, so the CET substeps collapse into one sweep
	// at the accumulated duration.
	fast := !c.Stressing()
	occLag := 0.0

	elapsed := 0.0
	for elapsed < dur {
		step := math.Min(maxSubstep, dur-elapsed)
		if fast {
			occLag += step
		} else {
			batchEvolve(grid, occs, captureAF, emitAF, step, phase)
		}
		for _, d := range devs {
			d.stepPermanent(c, emitAF, step)
			d.age += step
		}
		elapsed += step
	}
	if occLag > 0 {
		batchEvolve(grid, occs, captureAF, emitAF, occLag, phase)
	}
}

// batchEvolve advances every occupancy vector by one substep. A cached
// kernel serves the whole group directly; an uncached key materialises the
// kernel once into pooled scratch, amortising the axis exponentials and the
// per-cell rate divisions across the group.
func batchEvolve(g *cetGrid, occs [][]float64, captureAF, emitAF, dt float64, phase uint64) {
	if dt <= 0 || (captureAF <= 0 && emitAF <= 0) {
		return
	}
	if k := g.kernel(captureAF, emitAF, dt, phase); k != nil {
		for _, occ := range occs {
			kernelSweep(k, occ)
		}
		return
	}
	metBatchScratchKernels.Inc()
	k := g.scratchKernel(captureAF, emitAF, dt)
	for _, occ := range occs {
		kernelSweep(k, occ)
	}
	g.putScratchKernel(k)
}
