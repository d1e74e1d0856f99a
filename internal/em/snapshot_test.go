package em

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// mustSnapshot returns the segment's snapshot, failing the test on error.
func mustSnapshot(t testing.TB, r *Reduced) []byte {
	t.Helper()
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReducedCompactRoundTrip(t *testing.T) {
	p := DefaultReducedParams()
	r := mustReduced(t, p)
	for i := 0; i < 200; i++ {
		r.Step(jPaper, tempPaper, 3600)
	}
	data := mustSnapshot(t, r)
	if len(data) != reducedSnapshotSize {
		t.Fatalf("snapshot frame is %dB, want %dB", len(data), reducedSnapshotSize)
	}

	fresh := mustReduced(t, p)
	if err := fresh.Restore(data); err != nil {
		t.Fatal(err)
	}
	if fresh.ResistanceDelta() != r.ResistanceDelta() || fresh.Broken() != r.Broken() {
		t.Errorf("round-trip mismatch: dR %g vs %g", fresh.ResistanceDelta(), r.ResistanceDelta())
	}
	// Continued evolution must agree bit-for-bit.
	r.Step(jPaper, tempPaper, 3600)
	fresh.Step(jPaper, tempPaper, 3600)
	if fresh.ResistanceDelta() != r.ResistanceDelta() {
		t.Errorf("post-restore evolution diverged: %g vs %g", fresh.ResistanceDelta(), r.ResistanceDelta())
	}
}

func TestReducedCompactRejectsGarbage(t *testing.T) {
	r := mustReduced(t, DefaultReducedParams())
	good := mustSnapshot(t, r)
	for _, junk := range [][]byte{nil, {}, good[:len(good)-1], append([]byte{0xff}, good[1:]...)} {
		if err := r.Restore(junk); err == nil {
			t.Errorf("garbage of %d bytes accepted", len(junk))
		}
	}
}

// TestReducedRestoreRejectsOutOfRangeState corrupts one field of a valid
// snapshot at a time; each must be refused without touching the segment.
func TestReducedRestoreRejectsOutOfRangeState(t *testing.T) {
	src := mustReduced(t, DefaultReducedParams())
	for i := 0; i < 200; i++ {
		src.Step(jPaper, tempPaper, 3600)
	}
	good := mustSnapshot(t, src)
	setFloat := func(off int, v float64) []byte {
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(data[off:], math.Float64bits(v))
		return data
	}
	setByte := func(off int, b byte) []byte {
		data := append([]byte(nil), good...)
		data[off] = b
		return data
	}
	// Offsets: progress at 1, broken at 9; end i's open flag at 10+25i
	// followed by lenM, maxLenM and permM.
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"progress NaN", setFloat(1, math.NaN())},
		{"progress +Inf", setFloat(1, math.Inf(1))},
		{"void length NaN", setFloat(11, math.NaN())},
		{"void length negative", setFloat(11, -1e-9)},
		{"max void length NaN", setFloat(19, math.NaN())},
		{"permanent length +Inf", setFloat(27, math.Inf(1))},
		{"reverse void length NaN", setFloat(36, math.NaN())},
		{"reverse permanent length negative", setFloat(52, -1)},
		{"broken flag 2", setByte(9, 2)},
		{"open flag 0xff", setByte(10, 0xff)},
	} {
		r := mustReduced(t, DefaultReducedParams())
		r.Step(jPaper, tempPaper, 3600)
		before := mustSnapshot(t, r)
		if err := r.Restore(c.data); err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !bytes.Equal(mustSnapshot(t, r), before) {
			t.Errorf("%s: rejected payload modified the segment", c.name)
		}
	}
}

// FuzzReducedRestore feeds arbitrary bytes to Reduced.Restore: no panic, and
// decode → encode → decode is a fixed point.
func FuzzReducedRestore(f *testing.F) {
	p := DefaultReducedParams()
	fresh := mustReduced(f, p)
	f.Add(mustSnapshot(f, fresh))
	aged := mustReduced(f, p)
	for i := 0; i < 200; i++ {
		aged.Step(jPaper, tempPaper, 3600)
	}
	f.Add(mustSnapshot(f, aged))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := mustReduced(t, p)
		if err := r.Restore(data); err != nil {
			return
		}
		enc := mustSnapshot(t, r)
		again := mustReduced(t, p)
		if err := again.Restore(enc); err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !bytes.Equal(mustSnapshot(t, again), enc) {
			t.Fatal("decode → encode is not a fixed point")
		}
	})
}
