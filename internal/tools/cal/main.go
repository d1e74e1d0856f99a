// Command cal is the developer calibration utility for the BTI model.
// It fits the handful of acceleration parameters so the simulated Table I
// recovery percentages reproduce the paper's model column, then prints the
// fitted parameter set to paste into bti.DefaultParams.
package main

import (
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/units"
)

type targets struct {
	no1, no2, no3, no4 float64 // Table I model column (fractions)
	permPlateau        float64 // unrecoverable fraction under extended deep recovery
}

func paperTargets() targets {
	return targets{no1: 0.010, no2: 0.144, no3: 0.292, no4: 0.727, permPlateau: 0.265}
}

func measure(p bti.Params) (no1, no2, no3, no4, plateau float64) {
	d := bti.MustNewDevice(p)
	d.Apply(bti.StressAccel, units.Hours(24))
	no1 = d.RecoveryFraction(bti.RecoverPassive, units.Hours(6))
	no2 = d.RecoveryFraction(bti.RecoverActive, units.Hours(6))
	no3 = d.RecoveryFraction(bti.RecoverAccelerated, units.Hours(6))
	no4 = d.RecoveryFraction(bti.RecoverDeep, units.Hours(6))
	plateau = 1 - d.RecoveryFraction(bti.RecoverDeep, units.Hours(48))
	return
}

// tune adjusts one scalar knob with a secant iteration until eval(p) hits
// target within tol.
func tune(p *bti.Params, set func(*bti.Params, float64), get0 float64, eval func(bti.Params) float64, target, tol float64) {
	x0 := get0
	f0 := eval(*p) - target
	x1 := x0 * 1.05
	for i := 0; i < 24; i++ {
		set(p, x1)
		f1 := eval(*p) - target
		if abs(f1) < tol {
			return
		}
		if f1 == f0 {
			break
		}
		x2 := x1 - f1*(x1-x0)/(f1-f0)
		if x2 <= 0 {
			x2 = x1 / 2
		}
		x0, f0 = x1, f1
		x1 = x2
	}
	set(p, x1)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func main() {
	p := bti.DefaultParams()
	tg := paperTargets()
	for round := 0; round < 4; round++ {
		tune(&p, func(q *bti.Params, v float64) { q.GenRateVPerSec = v }, p.GenRateVPerSec,
			func(q bti.Params) float64 { _, _, _, _, pl := measure(q); return pl }, tg.permPlateau, 0.002)
		tune(&p, func(q *bti.Params, v float64) { q.MuEmission = v }, p.MuEmission,
			func(q bti.Params) float64 { n1, _, _, _, _ := measure(q); return n1 }, tg.no1, 0.0005)
		tune(&p, func(q *bti.Params, v float64) { q.VoltageScale = v }, p.VoltageScale,
			func(q bti.Params) float64 { _, n2, _, _, _ := measure(q); return n2 }, tg.no2, 0.001)
		tune(&p, func(q *bti.Params, v float64) { q.EaEmission = v }, p.EaEmission,
			func(q bti.Params) float64 { _, _, n3, _, _ := measure(q); return n3 }, tg.no3, 0.001)
		tune(&p, func(q *bti.Params, v float64) { q.Synergy = v }, p.Synergy,
			func(q bti.Params) float64 { _, _, _, n4, _ := measure(q); return n4 }, tg.no4, 0.001)
		n1, n2, n3, n4, pl := measure(p)
		fmt.Printf("round %d: No1=%.2f%% No2=%.2f%% No3=%.2f%% No4=%.2f%% plateau=%.2f%%\n",
			round, n1*100, n2*100, n3*100, n4*100, pl*100)
	}
	fmt.Printf("\nfitted params:\n")
	fmt.Printf("  MuEmission:     %.4f\n", p.MuEmission)
	fmt.Printf("  EaEmission:     %.4f\n", p.EaEmission)
	fmt.Printf("  VoltageScale:   %.5f\n", p.VoltageScale)
	fmt.Printf("  Synergy:        %.4f\n", p.Synergy)
	fmt.Printf("  GenRateVPerSec: %.4g\n", p.GenRateVPerSec)

	d := bti.MustNewDevice(p)
	d.Apply(bti.StressAccel, units.Hours(24))
	fmt.Printf("\nafter 24h stress: shift=%.4fV recoverable=%.4fV perm=%.4fV locked=%.4fV\n",
		d.ShiftV(), d.RecoverableV(), d.PermanentV(), d.LockedV())
	for _, r := range [][2]float64{{1, 1}, {2, 1}, {4, 1}} {
		d3 := bti.MustNewDevice(p)
		res := d3.RunDutyCycles(bti.StressAccel, bti.RecoverDeep, units.Hours(r[0]), units.Hours(r[1]), 20)
		fmt.Printf("duty %v:%v residuals(mV): ", r[0], r[1])
		for _, cr := range res {
			fmt.Printf("%.2f/%.2f ", cr.ResidualV*1000, cr.LockedV*1000)
		}
		fmt.Println()
	}
}
