package bti

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"deepheal/internal/units"
)

// mustSnapshot returns the device's snapshot, failing the test on error.
func mustSnapshot(t testing.TB, d *Device) []byte {
	t.Helper()
	data, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	d.Apply(StressAccel, units.Hours(10))
	d.Apply(RecoverDeep, units.Hours(2))

	data := mustSnapshot(t, d)
	r := MustNewDevice(DefaultParams())
	if err := r.Restore(data); err != nil {
		t.Fatal(err)
	}
	if r.ShiftV() != d.ShiftV() || r.PermanentV() != d.PermanentV() || r.Age() != d.Age() {
		t.Fatal("restored state differs")
	}
	// Future evolution must be identical.
	d.Apply(StressAccel, units.Hours(5))
	r.Apply(StressAccel, units.Hours(5))
	if math.Abs(d.ShiftV()-r.ShiftV()) > 1e-15 {
		t.Errorf("evolution diverged after restore: %g vs %g", d.ShiftV(), r.ShiftV())
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	if err := d.Restore([]byte("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if err := d.Restore(nil); err == nil {
		t.Error("empty snapshot accepted")
	}
}

func TestSnapshotFreshDevice(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	r := MustNewDevice(DefaultParams())
	r.Apply(StressAccel, units.Hours(1))
	if err := r.Restore(mustSnapshot(t, d)); err != nil {
		t.Fatal(err)
	}
	if r.ShiftV() != 0 || r.Age() != 0 {
		t.Error("fresh snapshot not fresh")
	}
}

// TestRestoreRejectsOutOfRangeState corrupts one value of a valid snapshot
// at a time. Each corruption must be refused and leave the receiver exactly
// as it was: a NaN or out-of-range occupancy would otherwise surface as a
// NaN ShiftV, and a negative or non-finite permanent state or age would
// corrupt every later step.
func TestRestoreRejectsOutOfRangeState(t *testing.T) {
	p := DefaultParams().Coarse()
	src := MustNewDevice(p)
	src.Apply(StressAccel, units.Hours(3))
	good := mustSnapshot(t, src)
	header := len(good) - 24 - 8*len(src.occ) // magic + two uvarint dims

	// setFloat overwrites the permanent-state float at slot i (precursor,
	// locked, age).
	setFloat := func(i int, v float64) []byte {
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(data[header+8*i:], math.Float64bits(v))
		return data
	}
	// setOcc sets every occupancy cell to v, shuffled as Snapshot stores it.
	setOcc := func(v float64) []byte {
		raw := make([]byte, 8*len(src.occ))
		for i := range src.occ {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		data := append([]byte(nil), good[:header+24]...)
		shuffled := make([]byte, len(raw))
		shuffleBytes(shuffled, raw, 8)
		return append(data, shuffled...)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"occupancy NaN", setOcc(math.NaN())},
		{"occupancy above 1", setOcc(1.5)},
		{"occupancy negative", setOcc(-0.25)},
		{"occupancy +Inf", setOcc(math.Inf(1))},
		{"precursor NaN", setFloat(0, math.NaN())},
		{"precursor negative", setFloat(0, -1e-3)},
		{"locked NaN", setFloat(1, math.NaN())},
		{"locked +Inf", setFloat(1, math.Inf(1))},
		{"locked negative", setFloat(1, -1e-3)},
		{"age NaN", setFloat(2, math.NaN())},
		{"age negative", setFloat(2, -1)},
		{"age -Inf", setFloat(2, math.Inf(-1))},
	} {
		d := MustNewDevice(p)
		d.Apply(StressAccel, 900)
		before := mustSnapshot(t, d)
		if err := d.Restore(c.data); err == nil {
			t.Errorf("%s: accepted (ShiftV now %g)", c.name, d.ShiftV())
			continue
		}
		if !bytes.Equal(mustSnapshot(t, d), before) {
			t.Errorf("%s: rejected payload modified the device", c.name)
		}
	}
}

// FuzzDeviceRestore feeds arbitrary bytes to Device.Restore. It must never
// panic, and whatever it accepts must re-encode to a snapshot that restores
// to the same state: decode → encode → decode is a fixed point. The grid is
// the smallest valid one, so inputs stay short enough for the fuzzer to
// minimise quickly.
func FuzzDeviceRestore(f *testing.F) {
	p := DefaultParams()
	p.GridCapture, p.GridEmission = 2, 3
	fresh := MustNewDevice(p)
	f.Add(mustSnapshot(f, fresh))
	aged := MustNewDevice(p)
	aged.Apply(StressAccel, units.Hours(10))
	aged.Apply(RecoverDeep, units.Hours(2))
	f.Add(mustSnapshot(f, aged))
	f.Add([]byte("not a snapshot"))
	fresh.Release()
	aged.Release()

	f.Fuzz(func(t *testing.T, data []byte) {
		d := MustNewDevice(p)
		defer d.Release()
		if err := d.Restore(data); err != nil {
			return
		}
		enc := mustSnapshot(t, d)
		r := MustNewDevice(p)
		defer r.Release()
		if err := r.Restore(enc); err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if again := mustSnapshot(t, r); !bytes.Equal(again, enc) {
			t.Fatal("decode → encode is not a fixed point")
		}
	})
}
