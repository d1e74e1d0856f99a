// Package sensor models the on-chip wearout sensors the paper's system-level
// scheduling relies on (§IV.B): ring-oscillator frequency sensors for BTI
// threshold-voltage shift and resistance-ratio sensors for EM degradation.
// Both include quantisation and gaussian noise, and a calibration step that
// converts raw readings back to estimated wearout so scheduling policies can
// consume them.
package sensor

import (
	"errors"
	"fmt"
	"math"

	"deepheal/internal/rngx"
)

// ROConfig describes a ring-oscillator BTI sensor.
type ROConfig struct {
	// FreshHz is the oscillation frequency of the unstressed oscillator.
	FreshHz float64
	// SensPerV is the fractional frequency loss per volt of threshold
	// shift (Δf/f0 = SensPerV · ΔVth).
	SensPerV float64
	// NoiseSigmaHz is the gaussian read noise.
	NoiseSigmaHz float64
	// CounterHz quantises readings to multiples of this bin (a real sensor
	// counts edges over a fixed window); 0 disables quantisation.
	CounterHz float64
}

// DefaultROConfig models the paper's 75-stage LUT ring oscillator testbed:
// tens of MHz, ≈4 %/100 mV sensitivity.
func DefaultROConfig() ROConfig {
	return ROConfig{
		FreshHz:      48e6,
		SensPerV:     0.42,
		NoiseSigmaHz: 2e3,
		CounterHz:    1e3,
	}
}

// Validate reports whether the configuration is usable. Every field must be
// finite: a NaN would slip through the ordered comparisons below.
func (c ROConfig) Validate() error {
	switch {
	case !finite(c.FreshHz, c.SensPerV, c.NoiseSigmaHz, c.CounterHz):
		return errors.New("sensor: configuration must be finite")
	case c.FreshHz <= 0:
		return errors.New("sensor: fresh frequency must be positive")
	case c.SensPerV <= 0:
		return errors.New("sensor: sensitivity must be positive")
	case c.NoiseSigmaHz < 0 || c.CounterHz < 0:
		return errors.New("sensor: noise and quantisation must be non-negative")
	}
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ROSensor is one instantiated ring-oscillator sensor.
type ROSensor struct {
	cfg ROConfig
	rng *rngx.Source
}

// NewRO builds a sensor with its own deterministic noise stream.
func NewRO(cfg ROConfig, rng *rngx.Source) (*ROSensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("sensor: nil rng")
	}
	return &ROSensor{cfg: cfg, rng: rng}, nil
}

// Reading is one sampled sensor value.
type Reading struct {
	// FreqHz is the measured (noisy, quantised) oscillator frequency.
	FreqHz float64
	// ShiftV is the threshold-voltage shift estimated from the frequency
	// via the calibration curve.
	ShiftV float64
}

// Read samples the sensor given the true threshold shift of the monitored
// block.
func (s *ROSensor) Read(trueShiftV float64) Reading {
	metROReads.Inc()
	f := s.cfg.FreshHz * (1 - s.cfg.SensPerV*trueShiftV)
	f += s.rng.Normal(0, s.cfg.NoiseSigmaHz)
	if s.cfg.CounterHz > 0 {
		bins := f / s.cfg.CounterHz
		f = s.cfg.CounterHz * float64(int64(bins+0.5))
	}
	est := (1 - f/s.cfg.FreshHz) / s.cfg.SensPerV
	return Reading{FreqHz: f, ShiftV: est}
}

// EMConfig describes a resistance-ratio EM sensor: the monitored segment is
// compared against a matched unstressed reference, cancelling temperature.
type EMConfig struct {
	// RefOhm is the reference (fresh) resistance.
	RefOhm float64
	// NoiseSigmaFrac is the gaussian noise on the measured ratio.
	NoiseSigmaFrac float64
}

// DefaultEMConfig matches the paper's test wire at stress temperature.
func DefaultEMConfig() EMConfig {
	return EMConfig{RefOhm: 72.78, NoiseSigmaFrac: 5e-4}
}

// Validate reports whether the configuration is usable. Both fields must be
// finite.
func (c EMConfig) Validate() error {
	if !finite(c.RefOhm, c.NoiseSigmaFrac) {
		return errors.New("sensor: configuration must be finite")
	}
	if c.RefOhm <= 0 {
		return errors.New("sensor: reference resistance must be positive")
	}
	if c.NoiseSigmaFrac < 0 {
		return errors.New("sensor: noise must be non-negative")
	}
	return nil
}

// EMSensor is one instantiated resistance-ratio sensor.
type EMSensor struct {
	cfg EMConfig
	rng *rngx.Source
}

// NewEM builds an EM sensor with its own deterministic noise stream.
func NewEM(cfg EMConfig, rng *rngx.Source) (*EMSensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("sensor: nil rng")
	}
	return &EMSensor{cfg: cfg, rng: rng}, nil
}

// EMReading is one sampled EM sensor value.
type EMReading struct {
	// Ratio is the measured resistance ratio against the reference.
	Ratio float64
	// DeltaOhm is the estimated resistance increase.
	DeltaOhm float64
}

// Read samples the sensor given the true monitored resistance.
func (s *EMSensor) Read(trueOhm float64) (EMReading, error) {
	metEMReads.Inc()
	if trueOhm <= 0 {
		metEMErrors.Inc()
		return EMReading{}, fmt.Errorf("sensor: non-physical resistance %g", trueOhm)
	}
	ratio := trueOhm/s.cfg.RefOhm + s.rng.Normal(0, s.cfg.NoiseSigmaFrac)
	return EMReading{
		Ratio:    ratio,
		DeltaOhm: (ratio - 1) * s.cfg.RefOhm,
	}, nil
}
