package bti

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshot codec. A system checkpoint holds many devices whose Params the
// owning chip's configuration already pins, so a snapshot stores only the
// mutable state: grid dimensions (as a compatibility check), the three
// permanent-state floats, and the raw occupancy. The occupancy bytes are
// transposed byte-plane-wise (HDF5-style shuffle) so the slowly-varying
// high-order exponent/sign bytes of neighbouring cells become long runs that
// the engine container's DEFLATE layer can squeeze; the transform is exactly
// invertible, keeping restores bit-identical.

// deviceMagic leads every device snapshot.
const deviceMagic = 'B'

// shuffleBytes transposes an n×stride byte matrix into dst: plane b of the
// output holds byte b of every element.
func shuffleBytes(dst, src []byte, stride int) {
	n := len(src) / stride
	for i := 0; i < n; i++ {
		for b := 0; b < stride; b++ {
			dst[b*n+i] = src[i*stride+b]
		}
	}
}

// unshuffleBytes inverts shuffleBytes.
func unshuffleBytes(dst, src []byte, stride int) {
	n := len(src) / stride
	for i := 0; i < n; i++ {
		for b := 0; b < stride; b++ {
			dst[i*stride+b] = src[b*n+i]
		}
	}
}

// Snapshot implements engine.Component: it serialises the device's aging
// state. Restore it on a device built from the same Params. The error is
// always nil.
func (d *Device) Snapshot() ([]byte, error) {
	cells := len(d.occ)
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64+24+8*cells)
	buf = append(buf, deviceMagic)
	buf = binary.AppendUvarint(buf, uint64(d.params.GridCapture))
	buf = binary.AppendUvarint(buf, uint64(d.params.GridEmission))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.precursorV))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.lockedV))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.age))
	raw := make([]byte, 8*cells)
	for i, v := range d.occ {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	shuffled := make([]byte, len(raw))
	shuffleBytes(shuffled, raw, 8)
	return append(buf, shuffled...), nil
}

// Restore implements engine.Component: it rewinds the receiver in place to
// a Snapshot taken from a device with the same grid dimensions. Every value
// is checked before any is applied — occupancies must lie in [0, 1], the
// permanent components and the age must be finite and non-negative — so a
// rejected payload leaves the device untouched.
func (d *Device) Restore(data []byte) error {
	if len(data) == 0 || data[0] != deviceMagic {
		return fmt.Errorf("bti: restore: bad magic")
	}
	rest := data[1:]
	nc, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("bti: restore: truncated capture dim")
	}
	rest = rest[n:]
	ne, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("bti: restore: truncated emission dim")
	}
	rest = rest[n:]
	if nc != uint64(d.params.GridCapture) || ne != uint64(d.params.GridEmission) {
		return fmt.Errorf("bti: restore: snapshot grid %dx%d does not match device %dx%d",
			nc, ne, d.params.GridCapture, d.params.GridEmission)
	}
	cells := len(d.occ)
	if len(rest) != 24+8*cells {
		return fmt.Errorf("bti: restore: payload %dB, want %dB", len(rest), 24+8*cells)
	}
	var perm [3]float64 // precursorV, lockedV, age
	for i, name := range []string{"precursor", "locked", "age"} {
		v := math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("bti: restore: %s = %g, want finite and non-negative", name, v)
		}
		perm[i] = v
	}
	raw := make([]byte, 8*cells)
	unshuffleBytes(raw, rest[24:], 8)
	occ := make([]float64, cells)
	for i := range occ {
		occ[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if !(occ[i] >= 0 && occ[i] <= 1) {
			return fmt.Errorf("bti: restore: occupancy[%d] = %g outside [0,1]", i, occ[i])
		}
	}
	copy(d.occ, occ)
	d.precursorV, d.lockedV, d.age = perm[0], perm[1], perm[2]
	return nil
}
