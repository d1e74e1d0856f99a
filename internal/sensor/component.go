package sensor

import (
	"encoding/binary"
	"fmt"
	"math"

	"deepheal/internal/engine"
)

// Both sensors implement engine.Component. Sensors do not evolve with time
// (StepUnder is a no-op) but their noise streams are real state: a resumed
// simulation must read the same noise sequence the uninterrupted one would.
//
// A snapshot is one byte of magic, four config floats (the config is
// restored with the stream and validated like a constructor argument), then
// the length-prefixed rngx snapshot. The rngx journal is run-length
// encoded, so a sensor that draws once per step serialises to a few tens of
// bytes regardless of simulation age.

const (
	roMagic = 'S'
	emMagic = 'T'
)

// StepUnder implements engine.Component; sensors advance only when read.
func (s *ROSensor) StepUnder(engine.Condition) error { return nil }

// Snapshot implements engine.Component. The error is always nil.
func (s *ROSensor) Snapshot() ([]byte, error) {
	return appendSensor(roMagic, [4]float64{s.cfg.FreshHz, s.cfg.SensPerV, s.cfg.NoiseSigmaHz, s.cfg.CounterHz}, s.rng.Snapshot()), nil
}

// Restore implements engine.Component. A rejected snapshot leaves the
// sensor untouched.
func (s *ROSensor) Restore(data []byte) error {
	cfgFloats, rng, err := splitSensor(data, roMagic, "ro")
	if err != nil {
		return err
	}
	cfg := ROConfig{
		FreshHz:      cfgFloats[0],
		SensPerV:     cfgFloats[1],
		NoiseSigmaHz: cfgFloats[2],
		CounterHz:    cfgFloats[3],
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sensor: ro restore: %w", err)
	}
	if err := s.rng.Restore(rng); err != nil {
		return fmt.Errorf("sensor: ro restore: %w", err)
	}
	s.cfg = cfg
	return nil
}

// Validate implements engine.Component.
func (s *ROSensor) Validate() error { return s.cfg.Validate() }

// StepUnder implements engine.Component; sensors advance only when read.
func (s *EMSensor) StepUnder(engine.Condition) error { return nil }

// Snapshot implements engine.Component. The error is always nil.
func (s *EMSensor) Snapshot() ([]byte, error) {
	return appendSensor(emMagic, [4]float64{s.cfg.RefOhm, s.cfg.NoiseSigmaFrac, 0, 0}, s.rng.Snapshot()), nil
}

// Restore implements engine.Component. A rejected snapshot leaves the
// sensor untouched.
func (s *EMSensor) Restore(data []byte) error {
	cfgFloats, rng, err := splitSensor(data, emMagic, "em")
	if err != nil {
		return err
	}
	cfg := EMConfig{RefOhm: cfgFloats[0], NoiseSigmaFrac: cfgFloats[1]}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sensor: em restore: %w", err)
	}
	if err := s.rng.Restore(rng); err != nil {
		return fmt.Errorf("sensor: em restore: %w", err)
	}
	s.cfg = cfg
	return nil
}

// Validate implements engine.Component.
func (s *EMSensor) Validate() error { return s.cfg.Validate() }

// appendSensor frames a sensor snapshot: magic, four config floats, then the
// length-prefixed rng payload.
func appendSensor(magic byte, cfg [4]float64, rng []byte) []byte {
	buf := make([]byte, 0, 1+4*8+binary.MaxVarintLen64+len(rng))
	buf = append(buf, magic)
	for _, v := range cfg {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rng)))
	return append(buf, rng...)
}

// splitSensor validates the framing appendSensor writes and returns its
// config floats and rng payload.
func splitSensor(data []byte, magic byte, kind string) ([4]float64, []byte, error) {
	var cfg [4]float64
	if len(data) < 1+4*8+1 || data[0] != magic {
		return cfg, nil, fmt.Errorf("sensor: %s restore: bad frame", kind)
	}
	rest := data[1:]
	for i := range cfg {
		cfg[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	}
	rngLen, n := binary.Uvarint(rest)
	if n <= 0 || rngLen != uint64(len(rest[n:])) {
		return cfg, nil, fmt.Errorf("sensor: %s restore: truncated rng payload", kind)
	}
	return cfg, rest[n:], nil
}
