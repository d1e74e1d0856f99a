package em

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshot codec for Reduced segments. A system checkpoint holds many
// segments whose params the owning chip's configuration already pins, so a
// snapshot is a fixed 60-byte frame of the mutable state only: magic,
// nucleation progress, broken flag, then per void end an open flag and the
// three lengths.

const reducedMagic = 'E'

const reducedSnapshotSize = 1 + 8 + 1 + 2*(1+3*8)

// Snapshot implements engine.Component: it serialises the segment's
// nucleation and void state. Restore it on a segment built from the same
// ReducedParams. The error is always nil.
func (r *Reduced) Snapshot() ([]byte, error) {
	buf := make([]byte, 0, reducedSnapshotSize)
	buf = append(buf, reducedMagic)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.progress))
	buf = append(buf, boolByte(r.broken))
	for _, v := range r.voids {
		buf = append(buf, boolByte(v.open))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.lenM))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.maxLenM))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.permM))
	}
	return buf, nil
}

// Restore implements engine.Component: it rewinds the segment in place to a
// Snapshot, keeping its parameters. The progress must be finite, every void
// length finite and non-negative, and every flag 0 or 1; a rejected payload
// leaves the segment untouched.
func (r *Reduced) Restore(data []byte) error {
	if len(data) != reducedSnapshotSize || data[0] != reducedMagic {
		return fmt.Errorf("em: restore: payload %dB with magic %#x, want %dB frame",
			len(data), firstByte(data), reducedSnapshotSize)
	}
	progress := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
	if math.IsNaN(progress) || math.IsInf(progress, 0) {
		return fmt.Errorf("em: restore: nucleation progress %g is not finite", progress)
	}
	broken, err := flagByte(data[9], "broken")
	if err != nil {
		return err
	}
	var voids [2]voidState
	off := 10
	for i := range voids {
		open, err := flagByte(data[off], "void open")
		if err != nil {
			return err
		}
		var lens [3]float64 // lenM, maxLenM, permM
		for k := range lens {
			lens[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+1+8*k:]))
			if !(lens[k] >= 0) || math.IsInf(lens[k], 1) {
				return fmt.Errorf("em: restore: void length %g at end %d, want finite and non-negative", lens[k], i)
			}
		}
		voids[i] = voidState{open: open, lenM: lens[0], maxLenM: lens[1], permM: lens[2]}
		off += 25
	}
	r.progress = progress
	r.broken = broken
	r.voids = voids
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// flagByte decodes a boolean stored by boolByte.
func flagByte(b byte, what string) (bool, error) {
	if b > 1 {
		return false, fmt.Errorf("em: restore: %s flag %#x, want 0 or 1", what, b)
	}
	return b == 1, nil
}

func firstByte(data []byte) byte {
	if len(data) == 0 {
		return 0
	}
	return data[0]
}
