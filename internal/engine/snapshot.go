package engine

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// SnapshotVersion is the current system-snapshot format version. Decoding
// rejects snapshots from a different version rather than guessing. Version 2
// switched the rngx journal inside component payloads to run-length
// encoding; version-1 checkpoints are refused.
const SnapshotVersion = 2

// ErrNotCompact reports input that does not open with the container's
// magic. Older builds also wrote system checkpoints with encoding/gob; that
// form is no longer read.
var ErrNotCompact = errors.New("engine: not a compact snapshot; gob-encoded checkpoints from older builds are no longer read")

// SystemSnapshot composes the snapshots of every component of a simulation
// into one versioned, serialisable checkpoint.
type SystemSnapshot struct {
	// Version is the snapshot format version (SnapshotVersion at encode).
	Version int
	// Step is the simulation step the system was on when checkpointed.
	Step int
	// Components maps a caller-chosen name to that component's snapshot.
	Components map[string][]byte
}

// NewSystemSnapshot starts an empty snapshot at the given step.
func NewSystemSnapshot(step int) *SystemSnapshot {
	return &SystemSnapshot{
		Version:    SnapshotVersion,
		Step:       step,
		Components: make(map[string][]byte),
	}
}

// Add snapshots the component and stores it under name.
func (s *SystemSnapshot) Add(name string, c Component) error {
	data, err := c.Snapshot()
	if err != nil {
		return fmt.Errorf("engine: snapshot %q: %w", name, err)
	}
	return s.AddBytes(name, data)
}

// AddBytes stores pre-serialised state under name. Duplicate names are
// rejected: every component of the system must have a distinct identity.
func (s *SystemSnapshot) AddBytes(name string, data []byte) error {
	if _, ok := s.Components[name]; ok {
		return fmt.Errorf("engine: duplicate snapshot component %q", name)
	}
	s.Components[name] = data
	return nil
}

// Bytes returns the stored state for name.
func (s *SystemSnapshot) Bytes(name string) ([]byte, error) {
	data, ok := s.Components[name]
	if !ok {
		return nil, fmt.Errorf("engine: snapshot has no component %q", name)
	}
	return data, nil
}

// Restore rewinds the component from the state stored under name.
func (s *SystemSnapshot) Restore(name string, c Component) error {
	data, err := s.Bytes(name)
	if err != nil {
		return err
	}
	if err := c.Restore(data); err != nil {
		return fmt.Errorf("engine: restore %q: %w", name, err)
	}
	return nil
}

// Container framing: a fixed magic followed by one DEFLATE stream of
// varint-framed (name, payload) entries sorted by name:
//
//	magic | flate( version, step, n, n × (len(name), name, len(data), data) )
//
// Component payloads are stored as given, each in its component's own
// codec; the shared DEFLATE layer then squeezes the redundancy across
// components — occupancy byte-planes, repeated config blocks — in one pass.
// Sorting makes encoding deterministic despite the map.

// snapshotMagic leads the container. A gob stream opens with a non-zero
// uvarint message length, so the leading zero byte cannot collide with the
// gob form older builds wrote.
var snapshotMagic = []byte{0x00, 'D', 'H', 'C'}

// Encode serialises the snapshot.
func (s *SystemSnapshot) Encode() ([]byte, error) {
	if s.Step < 0 {
		return nil, fmt.Errorf("engine: encode snapshot: negative step %d", s.Step)
	}
	names := make([]string, 0, len(s.Components))
	for name := range s.Components {
		names = append(names, name)
	}
	sort.Strings(names)

	body := make([]byte, 0, 1024)
	body = binary.AppendUvarint(body, uint64(s.Version))
	body = binary.AppendUvarint(body, uint64(s.Step))
	body = binary.AppendUvarint(body, uint64(len(names)))
	for _, name := range names {
		body = binary.AppendUvarint(body, uint64(len(name)))
		body = append(body, name...)
		data := s.Components[name]
		body = binary.AppendUvarint(body, uint64(len(data)))
		body = append(body, data...)
	}

	var buf bytes.Buffer
	buf.Write(snapshotMagic)
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, fmt.Errorf("engine: encode snapshot: %w", err)
	}
	if _, err := zw.Write(body); err != nil {
		return nil, fmt.Errorf("engine: encode snapshot: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("engine: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSystemSnapshot deserialises an Encode container and checks its
// version. Input without the container's magic fails with ErrNotCompact.
func DecodeSystemSnapshot(data []byte) (*SystemSnapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, ErrNotCompact
	}
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(data[len(snapshotMagic):])))
	if err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %w", err)
	}
	rest := body
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("engine: decode snapshot: truncated %s", what)
		}
		rest = rest[n:]
		return v, nil
	}
	version, err := next("version")
	if err != nil {
		return nil, err
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d, this build reads %d", version, SnapshotVersion)
	}
	step, err := next("step")
	if err != nil {
		return nil, err
	}
	if step > math.MaxInt {
		return nil, fmt.Errorf("engine: decode snapshot: step %d out of range", step)
	}
	count, err := next("component count")
	if err != nil {
		return nil, err
	}
	if count > uint64(len(rest)) { // every entry needs ≥2 bytes
		return nil, fmt.Errorf("engine: decode snapshot: %d components exceeds payload", count)
	}
	s := &SystemSnapshot{
		Version:    int(version),
		Step:       int(step),
		Components: make(map[string][]byte, count),
	}
	for i := uint64(0); i < count; i++ {
		nameLen, err := next("name length")
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(rest)) {
			return nil, fmt.Errorf("engine: decode snapshot: component %d name overruns payload", i)
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		dataLen, err := next("payload length")
		if err != nil {
			return nil, err
		}
		if dataLen > uint64(len(rest)) {
			return nil, fmt.Errorf("engine: decode snapshot: component %q overruns payload", name)
		}
		if _, ok := s.Components[name]; ok {
			return nil, fmt.Errorf("engine: decode snapshot: duplicate component %q", name)
		}
		payload := make([]byte, dataLen)
		copy(payload, rest[:dataLen])
		s.Components[name] = payload
		rest = rest[dataLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("engine: decode snapshot: %d trailing bytes", len(rest))
	}
	return s, nil
}
