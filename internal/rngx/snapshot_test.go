package rngx

import (
	"bytes"
	"math"
	"testing"
)

func TestCompactSnapshotRoundTrip(t *testing.T) {
	s := New(99)
	s.Float64()
	s.Normal(0, 1)
	s.IntN(5)
	s.Perm(4)
	s.Split(2)
	data := s.Snapshot()
	want := s.Normal(0, 1)

	r := New(0)
	if err := r.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got := r.Normal(0, 1); got != want {
		t.Errorf("restored stream drew %g, want %g", got, want)
	}
}

func TestCompactSnapshotConstantSizeForRegularStream(t *testing.T) {
	s := New(7)
	for i := 0; i < 10; i++ {
		s.Normal(0, 1)
	}
	short := len(s.Snapshot())
	for i := 0; i < 100000; i++ {
		s.Normal(0, 1)
	}
	long := len(s.Snapshot())
	// A single-kind stream is one journal run; only the count varint grows.
	if long > short+8 {
		t.Errorf("snapshot grew from %dB to %dB over a regular stream", short, long)
	}
}

func TestCompactRestoreRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("junk"), {snapshotMagic}, {snapshotMagic, 0x02, 0xff}} {
		s := New(0)
		if err := s.Restore(data); err == nil {
			t.Errorf("garbage %v accepted as snapshot", data)
		}
	}
}

func TestJournalRunLengthEncoding(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.Normal(0, 1)
		s.Float64()
	}
	// Alternating kinds produce one run per draw; identical consecutive
	// draws must collapse.
	if got := len(s.journal); got != 2000 {
		t.Fatalf("alternating draws produced %d runs, want 2000", got)
	}
	c := New(2)
	for i := 0; i < 1000; i++ {
		c.Normal(0, 1)
	}
	if got := len(c.journal); got != 1 {
		t.Errorf("identical draws produced %d runs, want 1", got)
	}
}

// TestRestoreBoundsReplay pins the replay limits: a journal that would
// replay more than maxReplayDraws draws, or permute more than maxPermN
// elements, is refused up front instead of pinning a CPU or exhausting
// memory.
func TestRestoreBoundsReplay(t *testing.T) {
	frame := func(runs ...opRun) []byte {
		s := New(5)
		s.journal = runs
		return s.Snapshot()
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"one huge run", frame(opRun{Kind: opNorm, Count: math.MaxInt64})},
		{"runs summing past the budget", frame(opRun{Kind: opNorm, Count: maxReplayDraws}, opRun{Kind: opFloat64, Count: 1})},
		{"huge permutation", frame(opRun{Kind: opPerm, Arg: math.MaxInt64, Count: 1})},
		{"negative permutation", frame(opRun{Kind: opPerm, Arg: -3, Count: 1})},
		{"permutations past the budget", frame(opRun{Kind: opPerm, Arg: maxPermN, Count: maxReplayDraws/(4*maxPermN) + 1})},
	} {
		s := New(9)
		want := New(9).Float64()
		if err := s.Restore(c.data); err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if got := s.Float64(); got != want {
			t.Errorf("%s: rejected snapshot moved the stream", c.name)
		}
	}
}

// FuzzSourceRestore feeds arbitrary bytes to Source.Restore: no panic, and
// decode → encode → decode is a fixed point.
func FuzzSourceRestore(f *testing.F) {
	s := New(99)
	f.Add(s.Snapshot())
	s.Float64()
	s.Normal(0, 1)
	s.IntN(5)
	s.Perm(4)
	s.Split(2)
	f.Add(s.Snapshot())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := New(0)
		if err := r.Restore(data); err != nil {
			return
		}
		enc := r.Snapshot()
		again := New(1)
		if err := again.Restore(enc); err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !bytes.Equal(again.Snapshot(), enc) {
			t.Fatal("decode → encode is not a fixed point")
		}
	})
}
