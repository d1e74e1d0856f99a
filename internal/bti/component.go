package bti

import "deepheal/internal/engine"

// Device implements engine.Component so system simulations can step,
// checkpoint and validate per-core BTI state through one interface.

// StepUnder implements engine.Component: the generic condition maps onto
// the BTI gate voltage and junction temperature.
func (d *Device) StepUnder(c engine.Condition) error {
	d.Apply(Condition{GateVoltage: c.VoltageV, Temp: c.Temp}, c.Seconds)
	return nil
}

// Validate implements engine.Component.
func (d *Device) Validate() error { return d.params.Validate() }
