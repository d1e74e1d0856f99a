// Package rngx provides the deterministic random number generation used by
// the simulators: a seedable source with convenience distributions
// (normal, lognormal, log-uniform), stream splitting so concurrent
// components draw from independent, reproducible sequences, and exact
// snapshot/restore so long-running simulations can checkpoint mid-stream.
package rngx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// opRun is one run of identical primitive draws in the snapshot journal.
// The underlying generator consumes a variable number of raw words per draw
// (e.g. the ziggurat normal sampler), so restoring a stream replays the
// journal against a fresh generator instead of copying raw state. Runs are
// length-encoded: components that draw the same primitive every step (sensor
// noise, for example) keep an O(1) journal regardless of simulation age.
type opRun struct {
	Kind  byte  // one of the op* constants
	Arg   int64 // draw argument where consumption depends on it (IntN, Perm)
	Count int64 // number of consecutive identical draws
}

const (
	opFloat64 byte = iota
	opNorm
	opIntN
	opPerm
	opSplit
)

// Source is a deterministic pseudo-random stream.
type Source struct {
	rng     *rand.Rand
	seed    int64
	journal []opRun
}

// record appends one draw to the journal, extending the last run when the
// draw matches it.
func (s *Source) record(kind byte, arg int64) {
	if n := len(s.journal); n > 0 {
		last := &s.journal[n-1]
		if last.Kind == kind && last.Arg == arg {
			last.Count++
			return
		}
	}
	s.journal = append(s.journal, opRun{Kind: kind, Arg: arg, Count: 1})
}

// New creates a Source from a seed. The same seed always yields the same
// sequence, which keeps every experiment byte-for-byte reproducible.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Split derives an independent child stream labelled by id. Children of the
// same parent with different ids are decorrelated; the parent is unaffected
// beyond consuming one draw.
func (s *Source) Split(id int64) *Source {
	s.record(opSplit, 0)
	// SplitMix64-style hash of (parent seed draw, id) for the child seed.
	z := uint64(s.rng.Int63()) ^ (uint64(id) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return New(int64(z & 0x7fffffffffffffff))
}

// Float64 draws uniformly from [0, 1).
func (s *Source) Float64() float64 {
	s.record(opFloat64, 0)
	return s.rng.Float64()
}

// IntN draws uniformly from [0, n).
func (s *Source) IntN(n int) int {
	s.record(opIntN, int64(n))
	return s.rng.Intn(n)
}

// Uniform draws uniformly from [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal draws from a Gaussian with the given mean and standard deviation.
func (s *Source) Normal(mean, sigma float64) float64 {
	s.record(opNorm, 0)
	return mean + sigma*s.rng.NormFloat64()
}

// LogNormal draws from a lognormal distribution where the underlying normal
// has mean mu and deviation sigma (both in log space).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogUniform draws x such that log(x) is uniform over [log(lo), log(hi)].
// Both bounds must be positive.
func (s *Source) LogUniform(lo, hi float64) float64 {
	return math.Exp(s.Uniform(math.Log(lo), math.Log(hi)))
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	s.record(opPerm, int64(n))
	return s.rng.Perm(n)
}

// Bool draws true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Snapshot codec: one byte of magic, the seed, then (kind, arg, count) per
// journal run, all varint-framed. For the regular draw patterns simulation
// components produce (one identical draw per step) this stays a few bytes
// regardless of stream age.

// snapshotMagic leads every Source snapshot.
const snapshotMagic = 'R'

// Replay bounds. Restoring replays every journalled draw, so a corrupt or
// hostile count could otherwise pin a CPU for hours or, through Perm,
// allocate without limit. A fleet chip's horizon caps at 10^7 steps and each
// sensor stream draws once per step; the draw budget leaves an order of
// magnitude above that and replays in about a second.
const (
	maxReplayDraws = 1 << 27 // total draws; a Perm(n) costs about 4n
	maxPermN       = 1 << 20 // largest permutation a journal may replay
)

// Snapshot serialises the stream state. Restore continues the exact
// sequence the original would have produced.
func (s *Source) Snapshot() []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64*(2+3*len(s.journal)))
	buf = append(buf, snapshotMagic)
	buf = binary.AppendVarint(buf, s.seed)
	buf = binary.AppendUvarint(buf, uint64(len(s.journal)))
	for _, r := range s.journal {
		buf = append(buf, r.Kind)
		buf = binary.AppendVarint(buf, r.Arg)
		buf = binary.AppendUvarint(buf, uint64(r.Count))
	}
	return buf
}

// Restore rewinds the receiver to the snapshotted stream position by
// replaying the recorded draws against a fresh generator. A rejected
// snapshot leaves the receiver untouched.
func (s *Source) Restore(data []byte) error {
	if len(data) == 0 || data[0] != snapshotMagic {
		return fmt.Errorf("rngx: restore: bad magic")
	}
	rest := data[1:]
	seed, n := binary.Varint(rest)
	if n <= 0 {
		return fmt.Errorf("rngx: restore: truncated seed")
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("rngx: restore: truncated run count")
	}
	rest = rest[n:]
	// Each run occupies at least three bytes (kind plus two varints), so a
	// count beyond len/3 means a corrupt header; reject before allocating.
	if count > uint64(len(rest))/3 {
		return fmt.Errorf("rngx: restore: %d runs exceeds payload", count)
	}
	runs := make([]opRun, 0, count)
	var draws uint64
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return fmt.Errorf("rngx: restore: truncated run %d", i)
		}
		kind := rest[0]
		rest = rest[1:]
		arg, n := binary.Varint(rest)
		if n <= 0 {
			return fmt.Errorf("rngx: restore: truncated arg in run %d", i)
		}
		rest = rest[n:]
		cnt, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("rngx: restore: truncated count in run %d", i)
		}
		rest = rest[n:]
		cost := uint64(1)
		if kind == opPerm {
			if arg < 0 || arg > maxPermN {
				return fmt.Errorf("rngx: restore: run %d: Perm(%d) outside [0, %d]", i, arg, maxPermN)
			}
			cost = 4 * max(uint64(arg), 1)
		}
		if cnt > maxReplayDraws || draws+cnt*cost > maxReplayDraws {
			return fmt.Errorf("rngx: restore: journal replays more than %d draws", maxReplayDraws)
		}
		draws += cnt * cost
		runs = append(runs, opRun{Kind: kind, Arg: arg, Count: int64(cnt)})
	}
	if len(rest) != 0 {
		return fmt.Errorf("rngx: restore: %d trailing bytes", len(rest))
	}
	return s.replay(seed, runs)
}

// replay advances a fresh generator for the seed through the journal and
// adopts the result as the receiver's state.
func (s *Source) replay(seed int64, runs []opRun) error {
	rng := rand.New(rand.NewSource(seed))
	for i, r := range runs {
		if r.Count <= 0 {
			return fmt.Errorf("rngx: restore: run %d: count %d invalid", i, r.Count)
		}
		switch r.Kind {
		case opFloat64:
			for k := int64(0); k < r.Count; k++ {
				rng.Float64()
			}
		case opNorm:
			for k := int64(0); k < r.Count; k++ {
				rng.NormFloat64()
			}
		case opIntN:
			if r.Arg <= 0 {
				return fmt.Errorf("rngx: restore: run %d: IntN(%d) invalid", i, r.Arg)
			}
			for k := int64(0); k < r.Count; k++ {
				rng.Intn(int(r.Arg))
			}
		case opPerm:
			if r.Arg < 0 {
				return fmt.Errorf("rngx: restore: run %d: Perm(%d) invalid", i, r.Arg)
			}
			for k := int64(0); k < r.Count; k++ {
				rng.Perm(int(r.Arg))
			}
		case opSplit:
			for k := int64(0); k < r.Count; k++ {
				rng.Int63()
			}
		default:
			return fmt.Errorf("rngx: restore: unknown op kind %d", r.Kind)
		}
	}
	s.rng = rng
	s.seed = seed
	s.journal = runs
	return nil
}
