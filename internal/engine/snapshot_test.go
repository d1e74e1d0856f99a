package engine

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
)

// memComponent is a trivial Component whose state is one byte slice.
type memComponent struct {
	state []byte
	fail  bool
}

func (m *memComponent) StepUnder(Condition) error { return nil }
func (m *memComponent) Snapshot() ([]byte, error) {
	if m.fail {
		return nil, errTest
	}
	return append([]byte(nil), m.state...), nil
}
func (m *memComponent) Restore(data []byte) error {
	if m.fail {
		return errTest
	}
	m.state = append([]byte(nil), data...)
	return nil
}
func (m *memComponent) Validate() error { return nil }

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "component failed" }

func TestSystemSnapshotRoundtrip(t *testing.T) {
	a := &memComponent{state: []byte("alpha")}
	b := &memComponent{state: []byte("beta")}
	snap := NewSystemSnapshot(42)
	if err := snap.Add("a", a); err != nil {
		t.Fatal(err)
	}
	if err := snap.Add("b", b); err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}

	got, err := DecodeSystemSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 42 || got.Version != SnapshotVersion {
		t.Fatalf("decoded step/version = %d/%d", got.Step, got.Version)
	}
	a2, b2 := &memComponent{}, &memComponent{}
	if err := got.Restore("a", a2); err != nil {
		t.Fatal(err)
	}
	if err := got.Restore("b", b2); err != nil {
		t.Fatal(err)
	}
	if string(a2.state) != "alpha" || string(b2.state) != "beta" {
		t.Errorf("restored state %q/%q", a2.state, b2.state)
	}
}

func TestSystemSnapshotRejectsDuplicates(t *testing.T) {
	snap := NewSystemSnapshot(0)
	if err := snap.AddBytes("x", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := snap.AddBytes("x", []byte{2}); err == nil {
		t.Fatal("duplicate component name accepted")
	}
}

func TestSystemSnapshotMissingComponent(t *testing.T) {
	snap := NewSystemSnapshot(0)
	if _, err := snap.Bytes("ghost"); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("missing component err = %v", err)
	}
	if err := snap.Restore("ghost", &memComponent{}); err == nil {
		t.Fatal("restore from missing component succeeded")
	}
}

func TestSystemSnapshotVersionCheck(t *testing.T) {
	snap := NewSystemSnapshot(7)
	snap.Version = SnapshotVersion + 1
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSystemSnapshot(data); err == nil {
		t.Fatal("future snapshot version accepted")
	}
	if _, err := DecodeSystemSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage accepted as snapshot")
	}
}

func TestSystemSnapshotAddPropagatesErrors(t *testing.T) {
	snap := NewSystemSnapshot(0)
	if err := snap.Add("bad", &memComponent{fail: true}); err == nil {
		t.Fatal("failing component snapshot accepted")
	}
}

func TestCompactSnapshotRoundTrip(t *testing.T) {
	s := NewSystemSnapshot(42)
	payloads := map[string][]byte{
		"bti/core/0": bytes.Repeat([]byte{1, 2, 3, 4}, 64),
		"bti/core/1": {},
		"core/sim":   []byte("gob payload here"),
	}
	for name, data := range payloads {
		if err := s.AddBytes(name, data); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSystemSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Step != 42 || dec.Version != SnapshotVersion {
		t.Errorf("decoded step/version %d/%d, want 42/%d", dec.Step, dec.Version, SnapshotVersion)
	}
	if len(dec.Components) != len(payloads) {
		t.Fatalf("decoded %d components, want %d", len(dec.Components), len(payloads))
	}
	for name, want := range payloads {
		got, err := dec.Bytes(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("component %q corrupted through compact round-trip", name)
		}
	}
}

func TestCompactEncodingDeterministic(t *testing.T) {
	build := func() []byte {
		s := NewSystemSnapshot(7)
		for _, name := range []string{"z", "a", "m"} {
			if err := s.AddBytes(name, []byte(name+"-payload")); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	if !bytes.Equal(build(), build()) {
		t.Error("compact encoding differs across identical snapshots")
	}
}

func TestCompactDecodeRejectsCorruption(t *testing.T) {
	s := NewSystemSnapshot(1)
	if err := s.AddBytes("x", []byte("data")); err != nil {
		t.Fatal(err)
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// A step beyond MaxInt would decode as a negative int that Encode
	// then refuses, so the decoder must reject it.
	var huge bytes.Buffer
	huge.Write(snapshotMagic)
	zw, err := flate.NewWriter(&huge, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	body := binary.AppendUvarint(nil, SnapshotVersion)
	body = binary.AppendUvarint(body, 1<<63)
	body = binary.AppendUvarint(body, 0)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{
		enc[:len(enc)-3],
		append(append([]byte{}, snapshotMagic...), 0xff, 0xff),
		huge.Bytes(),
	} {
		if _, err := DecodeSystemSnapshot(data); err == nil {
			t.Errorf("corrupt compact snapshot of %d bytes accepted", len(data))
		}
	}
}

// TestDecodeRejectsGobSnapshot feeds the decoder the gob encoding older
// builds wrote for a SystemSnapshot. It must fail with ErrNotCompact, whose
// message says gob checkpoints are no longer read.
func TestDecodeRejectsGobSnapshot(t *testing.T) {
	var buf bytes.Buffer
	old := SystemSnapshot{Version: SnapshotVersion, Step: 3, Components: map[string][]byte{"c": {9, 9}}}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{buf.Bytes(), nil, []byte("not a snapshot")} {
		_, err := DecodeSystemSnapshot(data)
		if !errors.Is(err, ErrNotCompact) {
			t.Fatalf("decode of %d non-container bytes: err = %v, want ErrNotCompact", len(data), err)
		}
	}
	if !strings.Contains(ErrNotCompact.Error(), "gob") {
		t.Errorf("ErrNotCompact %q does not mention gob checkpoints", ErrNotCompact)
	}
}

// FuzzDecodeSystemSnapshot feeds arbitrary bytes to DecodeSystemSnapshot: no
// panic, and decode → encode → decode is a fixed point.
func FuzzDecodeSystemSnapshot(f *testing.F) {
	s := NewSystemSnapshot(42)
	for name, data := range map[string][]byte{
		"bti/core/0": bytes.Repeat([]byte{1, 2, 3, 4}, 64),
		"bti/core/1": {},
		"core/sim":   []byte("gob payload here"),
	} {
		if err := s.AddBytes(name, data); err != nil {
			f.Fatal(err)
		}
	}
	enc, err := s.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	empty, err := NewSystemSnapshot(0).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeSystemSnapshot(data)
		if err != nil {
			return
		}
		enc, err := dec.Encode()
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		again, err := DecodeSystemSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if again.Version != dec.Version || again.Step != dec.Step || len(again.Components) != len(dec.Components) {
			t.Fatalf("header changed through re-encoding: %d/%d/%d vs %d/%d/%d", again.Version, again.Step,
				len(again.Components), dec.Version, dec.Step, len(dec.Components))
		}
		for name, want := range dec.Components {
			if got, ok := again.Components[name]; !ok || !bytes.Equal(got, want) {
				t.Fatalf("component %q changed through re-encoding", name)
			}
		}
	})
}
