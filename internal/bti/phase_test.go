package bti

import (
	"fmt"
	"math"
	"testing"

	"deepheal/internal/obs"
	"deepheal/internal/rngx"
	"deepheal/internal/units"
)

// The reference below is the CET update loop as it was before the phase
// loop resolved kernels once per phase: every substep sweeps every cell in
// the general form pInf + (occ−pInf)·dc·decayE, and the permanent kinetics
// re-read the grid through gridShift. The production paths must match it
// bit for bit.

// refSweep is the pre-phase-loop separable sweep, general form for every
// condition, computing both axes inline.
func refSweep(g *cetGrid, occ []float64, captureAF, emitAF, dt float64) {
	if dt <= 0 || (captureAF <= 0 && emitAF <= 0) {
		return
	}
	re := make([]float64, g.ne)
	decayE := make([]float64, g.ne)
	for j := range re {
		re[j] = emitAF / g.tauE[j]
		decayE[j] = math.Exp(-re[j] * dt)
	}
	for i := 0; i < g.nc; i++ {
		var rc float64
		if captureAF > 0 {
			rc = captureAF / g.tauC[i]
		}
		dc := math.Exp(-rc * dt)
		row := occ[i*g.ne : (i+1)*g.ne]
		for j := range row {
			rate := rc + re[j]
			if rate <= 0 {
				continue
			}
			pInf := rc / rate
			row[j] = pInf + (row[j]-pInf)*(dc*decayE[j])
		}
	}
}

// refApplyObserved is the pre-phase-loop ApplyObserved: one sweep per
// substep under stress, one collapsed sweep per flush outside it.
func refApplyObserved(d *Device, c Condition, dur, observeEvery float64, observe func(t, shiftV float64)) {
	if dur <= 0 {
		return
	}
	captureAF := d.params.captureAccel(c)
	emitAF := d.params.emissionAccel(c)
	fast := !c.Stressing()
	occLag := 0.0
	flush := func() {
		if occLag > 0 {
			refSweep(d.grid, d.occ, captureAF, emitAF, occLag)
			occLag = 0
		}
	}
	elapsed := 0.0
	lastObserved := -1.0
	nextObserve := observeEvery
	for elapsed < dur {
		step := math.Min(maxSubstep, dur-elapsed)
		if observe != nil && observeEvery > 0 && elapsed+step > nextObserve {
			step = nextObserve - elapsed
		}
		if step > 0 {
			if fast {
				occLag += step
			} else {
				refSweep(d.grid, d.occ, captureAF, emitAF, step)
			}
			d.stepPermanent(c, emitAF, step, gridShift(d.grid, d.occ))
			elapsed += step
			d.age += step
		}
		if observe != nil && observeEvery > 0 && elapsed >= nextObserve {
			flush()
			observe(elapsed, d.ShiftV())
			lastObserved = elapsed
			nextObserve += observeEvery
			if nextObserve <= elapsed {
				nextObserve = math.Inf(1)
			}
		} else if step <= 0 {
			break
		}
	}
	flush()
	if observe != nil && lastObserved < dur {
		observe(dur, d.ShiftV())
	}
}

// requireBitwise asserts two devices carry bitwise-identical state; unlike
// ==, it tells +0 from −0.
func requireBitwise(t *testing.T, got, want *Device, label string) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.precursorV, want.precursorV) || !same(got.lockedV, want.lockedV) || !same(got.age, want.age) {
		t.Fatalf("%s: permanent state (%v, %v, %v), reference (%v, %v, %v)", label,
			got.precursorV, got.lockedV, got.age, want.precursorV, want.lockedV, want.age)
	}
	for i := range want.occ {
		if !same(got.occ[i], want.occ[i]) {
			t.Fatalf("%s: occ[%d] = %v, reference %v", label, i, got.occ[i], want.occ[i])
		}
	}
}

var (
	phaseDurations  = []float64{450, 900, 1800, 2160, 3600, 86400}
	phaseConditions = []Condition{
		StressAccel,
		{GateVoltage: 1.1, Temp: units.Celsius(85)},
		RecoverPassive,
		RecoverDeep,
	}
)

// wornDevice returns a device on its own private grid, worn by a stress
// phase, with two cells forced to +0 occupancy. fresh skips the wear,
// leaving every cell at +0.
func wornDevice(p Params, fresh bool) *Device {
	d := newDeviceOnGrid(p, newCETGrid(p))
	if !fresh {
		refApplyObserved(d, StressAccel, 7200, 0, nil)
		d.occ[0], d.occ[len(d.occ)-1] = 0, 0
	}
	return d
}

// warmCache promotes every condition key a (c, dur) phase uses on g by
// running the phase twice on throwaway devices.
func warmCache(p Params, g *cetGrid, c Condition, dur float64) {
	for i := 0; i < 2; i++ {
		newDeviceOnGrid(p, g).Apply(c, dur)
	}
}

// TestApplyMatchesPerSubstepReference drives Apply and ApplyObserved through
// every duration and condition, with the phase's kernel keys cached and
// uncached, from worn and fresh (all +0) states, against the reference loop.
func TestApplyMatchesPerSubstepReference(t *testing.T) {
	for _, p := range []Params{DefaultParams(), DefaultParams().Coarse()} {
		for _, c := range phaseConditions {
			for _, dur := range phaseDurations {
				for _, cached := range []bool{false, true} {
					for _, fresh := range []bool{false, true} {
						label := fmt.Sprintf("%dx%d %v %gs cached=%v fresh=%v",
							p.GridCapture, p.GridEmission, c, dur, cached, fresh)
						d := wornDevice(p, fresh)
						ref := d.Clone()
						if cached {
							warmCache(p, d.grid, c, dur)
							if c.Stressing() && dur >= maxSubstep {
								key := condKey{p.captureAccel(c), p.emissionAccel(c), maxSubstep}
								if d.grid.kernels[key] == nil {
									t.Fatalf("%s: full-substep key not cached after warm-up", label)
								}
							}
						}
						d.Apply(c, dur)
						refApplyObserved(ref, c, dur, 0, nil)
						requireBitwise(t, d, ref, label+" Apply")

						type obsv struct{ t, v float64 }
						var got, want []obsv
						d.ApplyObserved(c, dur, 1700, func(tt, v float64) { got = append(got, obsv{tt, v}) })
						refApplyObserved(ref, c, dur, 1700, func(tt, v float64) { want = append(want, obsv{tt, v}) })
						requireBitwise(t, d, ref, label+" ApplyObserved")
						if len(got) != len(want) {
							t.Fatalf("%s: %d observations, reference %d", label, len(got), len(want))
						}
						for i := range want {
							if math.Float64bits(got[i].t) != math.Float64bits(want[i].t) ||
								math.Float64bits(got[i].v) != math.Float64bits(want[i].v) {
								t.Fatalf("%s: observation %d = %v, reference %v", label, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchApplyMatchesPerSubstepReference runs mixed-grid batches — two
// shared grids of three devices and a private-grid singleton — through
// every duration and condition, cached and uncached, against the reference
// loop applied device by device.
func TestBatchApplyMatchesPerSubstepReference(t *testing.T) {
	coarse := DefaultParams().Coarse()
	other := coarse
	other.MaxShiftV *= 1.25
	for _, c := range phaseConditions {
		for _, dur := range phaseDurations {
			for _, cached := range []bool{false, true} {
				label := fmt.Sprintf("%v %gs cached=%v", c, dur, cached)
				var batch, ref []*Device
				for gi, p := range []Params{coarse, other, coarse} {
					g := newCETGrid(p)
					if cached {
						warmCache(p, g, c, dur)
					}
					members := 3
					if gi == 2 {
						members = 1 // private-grid singleton
					}
					for m := 0; m < members; m++ {
						d := newDeviceOnGrid(p, g)
						refApplyObserved(d, StressAccel, float64(1+m)*1000, 0, nil)
						d.occ[m] = 0
						batch = append(batch, d)
						ref = append(ref, d.Clone())
					}
				}
				BatchApply(batch, c, dur)
				for i, d := range ref {
					refApplyObserved(d, c, dur, 0, nil)
					requireBitwise(t, batch[i], d, fmt.Sprintf("%s member %d", label, i))
				}
			}
		}
	}
}

// TestSweepReadoutMatchesGridShift checks the fused readout: every sweep
// returns exactly gridShift of the occupancy it leaves, and the recovery
// specialisation leaves exactly what the general form does.
func TestSweepReadoutMatchesGridShift(t *testing.T) {
	rng := rngx.New(3)
	for _, p := range []Params{DefaultParams(), DefaultParams().Coarse()} {
		g := newCETGrid(p)
		for trial := 0; trial < 200; trial++ {
			captureAF := 0.0
			if trial%2 == 0 {
				captureAF = rng.LogUniform(1e-3, 1e3)
			}
			emitAF := rng.LogUniform(1e-3, 1e3)
			dt := rng.LogUniform(1, 1e5)
			occ := randomOcc(rng, g.nc*g.ne)
			occ[rng.IntN(len(occ))] = 0

			want := append([]float64(nil), occ...)
			refSweep(g, want, captureAF, emitAF, dt)

			sep := append([]float64(nil), occ...)
			sepShift := separableSweep(g, sep, captureAF, emitAF, dt)
			k := g.buildKernel(captureAF, emitAF, dt)
			ker := append([]float64(nil), occ...)
			kerShift := kernelSweep(k, g.weight, ker)

			for i := range want {
				if math.Float64bits(sep[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d: separable occ[%d] = %v, reference %v", trial, i, sep[i], want[i])
				}
				if math.Float64bits(ker[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d: kernel occ[%d] = %v, reference %v", trial, i, ker[i], want[i])
				}
			}
			if s := gridShift(g, sep); math.Float64bits(sepShift) != math.Float64bits(s) {
				t.Fatalf("trial %d: separable readout %v, gridShift %v", trial, sepShift, s)
			}
			if s := gridShift(g, ker); math.Float64bits(kerShift) != math.Float64bits(s) {
				t.Fatalf("trial %d: kernel readout %v, gridShift %v", trial, kerShift, s)
			}
		}
	}
}

// TestLongPhaseResolvesKernelOnce checks the per-phase resolution: an
// uncached 24 h stress phase looks its full-substep key up once, fills one
// scratch kernel, and sweeps separably at most for its tail.
func TestLongPhaseResolvesKernelOnce(t *testing.T) {
	p := DefaultParams().Coarse()
	d := newDeviceOnGrid(p, newCETGrid(p))
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	d.Apply(StressAccel, 86400+450)
	snap := reg.Snapshot()
	if got := snap.Counters["deepheal_bti_kernel_misses_total"]; got != 2 {
		t.Errorf("kernel misses = %d, want 2 (the full-substep key and the tail key)", got)
	}
	if got := snap.Counters["deepheal_bti_batch_scratch_kernels_total"]; got != 1 {
		t.Errorf("scratch kernels = %d, want 1", got)
	}
	if got := snap.Counters["deepheal_bti_separable_sweeps_total"]; got != 1 {
		t.Errorf("separable sweeps = %d, want 1 (the 450 s tail)", got)
	}
}
