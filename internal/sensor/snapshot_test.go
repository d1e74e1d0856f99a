package sensor

import (
	"bytes"
	"math"
	"testing"

	"deepheal/internal/engine"
	"deepheal/internal/rngx"
)

// mustSnapshot returns the sensor's snapshot, failing the test on error.
func mustSnapshot(t testing.TB, c engine.Component) []byte {
	t.Helper()
	data, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestROCompactRoundTrip(t *testing.T) {
	s, err := NewRO(DefaultROConfig(), rngx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.Read(0.005)
	}
	data := mustSnapshot(t, s)
	want := s.Read(0.005)

	r, err := NewRO(DefaultROConfig(), rngx.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got := r.Read(0.005); got != want {
		t.Errorf("restored sensor read %+v, want %+v", got, want)
	}
	// The journal is one RLE run; size must not scale with read count.
	if len(data) > 128 {
		t.Errorf("RO snapshot is %dB after 500 reads; journal not run-length encoded?", len(data))
	}
}

func TestEMCompactRoundTrip(t *testing.T) {
	s, err := NewEM(DefaultEMConfig(), rngx.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Read(73.0); err != nil {
			t.Fatal(err)
		}
	}
	data := mustSnapshot(t, s)
	want, err := s.Read(73.0)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewEM(DefaultEMConfig(), rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(data); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(73.0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("restored sensor read %+v, want %+v", got, want)
	}
}

func TestSensorCompactRejectsGarbage(t *testing.T) {
	ro, err := NewRO(DefaultROConfig(), rngx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	good := mustSnapshot(t, ro)
	for _, junk := range [][]byte{nil, {}, good[:10], append([]byte{0xff}, good[1:]...)} {
		if err := ro.Restore(junk); err == nil {
			t.Errorf("garbage of %d bytes accepted by RO sensor", len(junk))
		}
	}
}

// TestRestoreRejectsNonFiniteConfig restores snapshots whose config carries
// a NaN or an infinity. The ordered range checks alone admit NaN, so each
// must be refused explicitly, leaving the sensor's config and noise stream
// untouched.
func TestRestoreRejectsNonFiniteConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rng := rngx.New(3).Snapshot()
	ro := DefaultROConfig()
	for _, c := range []struct {
		name string
		cfg  [4]float64
	}{
		{"fresh NaN", [4]float64{nan, ro.SensPerV, ro.NoiseSigmaHz, ro.CounterHz}},
		{"fresh +Inf", [4]float64{inf, ro.SensPerV, ro.NoiseSigmaHz, ro.CounterHz}},
		{"sensitivity NaN", [4]float64{ro.FreshHz, nan, ro.NoiseSigmaHz, ro.CounterHz}},
		{"noise NaN", [4]float64{ro.FreshHz, ro.SensPerV, nan, ro.CounterHz}},
		{"noise +Inf", [4]float64{ro.FreshHz, ro.SensPerV, inf, ro.CounterHz}},
		{"counter NaN", [4]float64{ro.FreshHz, ro.SensPerV, ro.NoiseSigmaHz, nan}},
	} {
		s, err := NewRO(ro, rngx.New(4))
		if err != nil {
			t.Fatal(err)
		}
		before := mustSnapshot(t, s)
		if err := s.Restore(appendSensor(roMagic, c.cfg, rng)); err == nil {
			t.Errorf("RO %s: accepted", c.name)
		} else if !bytes.Equal(mustSnapshot(t, s), before) {
			t.Errorf("RO %s: rejected snapshot modified the sensor", c.name)
		}
	}
	em := DefaultEMConfig()
	for _, c := range []struct {
		name string
		cfg  [4]float64
	}{
		{"reference NaN", [4]float64{nan, em.NoiseSigmaFrac}},
		{"reference +Inf", [4]float64{inf, em.NoiseSigmaFrac}},
		{"noise NaN", [4]float64{em.RefOhm, nan}},
	} {
		s, err := NewEM(em, rngx.New(4))
		if err != nil {
			t.Fatal(err)
		}
		before := mustSnapshot(t, s)
		if err := s.Restore(appendSensor(emMagic, c.cfg, rng)); err == nil {
			t.Errorf("EM %s: accepted", c.name)
		} else if !bytes.Equal(mustSnapshot(t, s), before) {
			t.Errorf("EM %s: rejected snapshot modified the sensor", c.name)
		}
	}
}

// fuzzSensorRestore is the shared body of the sensor fuzz targets: restoring
// arbitrary bytes must not panic, and decode → encode → decode must be a
// fixed point. Seeds are a fresh sensor's snapshot and one after 50 reads.
func fuzzSensorRestore(f *testing.F, fresh func(testing.TB) engine.Component, read func(testing.TB, engine.Component)) {
	s := fresh(f)
	f.Add(mustSnapshot(f, s))
	for i := 0; i < 50; i++ {
		read(f, s)
	}
	f.Add(mustSnapshot(f, s))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := fresh(t)
		if err := r.Restore(data); err != nil {
			return
		}
		enc := mustSnapshot(t, r)
		again := fresh(t)
		if err := again.Restore(enc); err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !bytes.Equal(mustSnapshot(t, again), enc) {
			t.Fatal("decode → encode is not a fixed point")
		}
	})
}

func FuzzROSensorRestore(f *testing.F) {
	fuzzSensorRestore(f,
		func(tb testing.TB) engine.Component {
			s, err := NewRO(DefaultROConfig(), rngx.New(4))
			if err != nil {
				tb.Fatal(err)
			}
			return s
		},
		func(_ testing.TB, c engine.Component) { c.(*ROSensor).Read(0.005) })
}

func FuzzEMSensorRestore(f *testing.F) {
	fuzzSensorRestore(f,
		func(tb testing.TB) engine.Component {
			s, err := NewEM(DefaultEMConfig(), rngx.New(8))
			if err != nil {
				tb.Fatal(err)
			}
			return s
		},
		func(tb testing.TB, c engine.Component) {
			if _, err := c.(*EMSensor).Read(73.0); err != nil {
				tb.Fatal(err)
			}
		})
}
