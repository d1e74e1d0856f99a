package bti

import (
	"math"
	"sync"
)

// The CET evolution kernel exploits the separable structure of the trap
// update. A cell (i, j) relaxes toward its equilibrium occupancy with rate
// r_ij = rc_i + re_j, so the per-substep decay factor factorises:
//
//	exp(-(rc_i+re_j)·dt) = exp(-rc_i·dt) · exp(-re_j·dt)
//
// Evolving a grid therefore needs O(nc+ne) exponentials, not O(nc·ne): the
// axis decay vectors are combined per cell with one multiply. Two paths
// share that identity, chosen per condition key (captureAF, emitAF, dt):
//
//   - A cached kernel materialises the fused per-cell pInf/decay fields, so
//     every later substep at the same key is a pure fused multiply-add sweep
//     with no divisions or transcendentals. Experiments and benchmarks drive
//     a device fleet with a handful of exact conditions at the fixed
//     maxSubstep, so this path dominates there.
//   - A direct separable sweep computes the axis vectors into pooled scratch
//     and fuses on the fly. System simulations feed every core a slightly
//     different per-tile temperature each step (the CG thermal solve is
//     warm-started, so temperatures never repeat bitwise); materialising a
//     kernel per unique key would thrash, so unseen keys take this path.
//
// A key is promoted to a cached kernel when it is requested from two
// distinct Apply phases (each ApplyObserved call draws a fresh phase token
// from the grid's atomic counter). Promotion deliberately ignores repeats
// within one phase: a phase re-uses its key once per substep, which the
// separable sweep already serves allocation-free, and materialising a
// kernel for a key that never returns is pure churn. The two optimized
// paths apply identical operations in identical order, so they agree
// bit-for-bit; both match the naive per-cell-exponential reference within
// ~1e-15 relative (see kernel_test.go).

// condKey identifies one evolution kernel: the acceleration factors and the
// substep length fully determine the per-cell decay and equilibrium fields.
type condKey struct {
	captureAF, emitAF, dt float64
}

// evolveKernel holds the precomputed per-cell update for one condition key:
//
//	occ' = pInf + (occ − pInf)·decay
//
// decay is the materialised outer product decayC[i]·decayE[j] — built from
// the axis vectors, stored fused so apply is a branch-free flat sweep.
// Cells with zero total rate carry pInf = 0, decay = 1 (a no-op). Both
// fields are convex weights, keeping occupancies inside [0, 1].
type evolveKernel struct {
	pInf  []float64
	decay []float64
}

// floats reports the kernel's cached-memory footprint in float64 words.
func (k *evolveKernel) floats() int {
	return len(k.pInf) + len(k.decay)
}

// Cache bounds. The kernel cache is bounded by total floats, not entries: a
// many-core simulator with a periodic recovery rotation keeps cores ×
// rotation-patterns kernels hot, and cell counts vary per grid. Once full
// the cache refuses further admissions rather than evicting: under a
// periodic working set larger than the cap, any eviction scheme rebuilds
// every kernel each cycle (the access pattern is a sequential scan), whereas
// a pinned resident set keeps serving its share of hits with zero churn and
// overflow keys fall back to the allocation-free separable sweep. The seen
// map is cleared wholesale when full — it only gates promotion, so losing it
// merely delays a kernel by one recurrence.
const (
	maxKernelFloats = 1 << 21 // ≈16 MB of cached kernel fields per grid
	maxSeenKeys     = 4096    // one-shot keys awaiting promotion (32 B each)
)

// kernel returns the cached evolution kernel for the condition key, or nil
// if the key has not recurred across phases yet (the caller then runs the
// direct separable sweep). Safe for concurrent use: devices sharing a grid
// may evolve in parallel worker shards.
func (g *cetGrid) kernel(captureAF, emitAF, dt float64, phase uint64) *evolveKernel {
	key := condKey{captureAF, emitAF, dt}
	g.mu.RLock()
	k := g.kernels[key]
	g.mu.RUnlock()
	if k != nil {
		metKernelHits.Inc()
		return k
	}
	g.mu.Lock()
	if k = g.kernels[key]; k != nil { // raced with another promoter
		g.mu.Unlock()
		metKernelHits.Inc()
		return k
	}
	first, ok := g.seen[key]
	if !ok || first == phase {
		if !ok {
			if g.seen == nil || len(g.seen) >= maxSeenKeys {
				g.seen = make(map[condKey]uint64, 64)
			}
			g.seen[key] = phase
		}
		g.mu.Unlock()
		metKernelMisses.Inc()
		return nil
	}
	if g.kernelFloats+2*g.nc*g.ne > maxKernelFloats {
		g.mu.Unlock() // cache full: keep the resident set, sweep separably
		metKernelRefusals.Inc()
		metKernelMisses.Inc()
		return nil
	}
	delete(g.seen, key)
	g.mu.Unlock()

	k = g.buildKernel(captureAF, emitAF, dt) // outside the lock: O(nc·ne)
	metKernelBuilds.Inc()
	if g.testBuildHook != nil {
		g.testBuildHook()
	}
	g.mu.Lock()
	if g.kernels == nil {
		g.kernels = make(map[condKey]*evolveKernel, 16)
	}
	if g.kernelFloats+k.floats() <= maxKernelFloats {
		g.kernels[key] = k
		g.kernelFloats += k.floats()
		metKernelResident.Add(float64(k.floats()))
	} else {
		// Racing builders filled the float budget while we built. The fresh
		// kernel still serves this substep, but it cannot be admitted — so
		// put the promotion credit back. Without the restore the key would
		// have to re-earn promotion across two fresh phases even though it
		// already proved it recurs; with it, the key retries as soon as it
		// is requested again and is refused only while the budget stays
		// full.
		if g.seen == nil || len(g.seen) >= maxSeenKeys {
			g.seen = make(map[condKey]uint64, 64)
		}
		g.seen[key] = first
		metKernelRefusals.Inc()
	}
	g.mu.Unlock()
	return k
}

// buildKernel computes the axis decay vectors and fuses them into the
// per-cell fields: O(nc+ne) exponentials plus one O(nc·ne) multiply/divide
// sweep, amortised over every later substep at the same key.
func (g *cetGrid) buildKernel(captureAF, emitAF, dt float64) *evolveKernel {
	k := &evolveKernel{
		pInf:  make([]float64, g.nc*g.ne),
		decay: make([]float64, g.nc*g.ne),
	}
	g.fillKernel(k, captureAF, emitAF, dt)
	return k
}

// fillKernel overwrites k's fields with the fused update for the condition
// key. It is the single source of kernel values: cached kernels and the
// batch path's pooled scratch kernels both fill through here, so the two are
// bit-identical by construction. The emission axis uses the pooled scratch.
func (g *cetGrid) fillKernel(k *evolveKernel, captureAF, emitAF, dt float64) {
	nc, ne := g.nc, g.ne
	sc, _ := g.scratch.Get().(*axisScratch)
	if sc == nil || len(sc.re) != ne {
		sc = &axisScratch{re: make([]float64, ne), decayE: make([]float64, ne)}
	}
	re, decayE := sc.re, sc.decayE
	for j := range re {
		re[j] = emitAF / g.tauE[j]
		decayE[j] = math.Exp(-re[j] * dt)
	}
	for i := 0; i < nc; i++ {
		var rc float64
		if captureAF > 0 {
			rc = captureAF / g.tauC[i]
		}
		dc := math.Exp(-rc * dt)
		base := i * ne
		for j := 0; j < ne; j++ {
			rate := rc + re[j]
			if rate <= 0 {
				k.pInf[base+j] = 0 // the cell is frozen
				k.decay[base+j] = 1
				continue
			}
			k.pInf[base+j] = rc / rate
			k.decay[base+j] = dc * decayE[j]
		}
	}
	g.scratch.Put(sc)
}

// kernelSweep advances the occupancy vector by one kernel substep: a pure
// fused multiply-add sweep with no divisions or transcendentals.
func kernelSweep(k *evolveKernel, occ []float64) {
	pInf := k.pInf[:len(occ)]
	decay := k.decay[:len(occ)]
	for idx := range occ {
		occ[idx] = pInf[idx] + (occ[idx]-pInf[idx])*decay[idx]
	}
}

// axisScratch is the emission-axis working set of one direct separable
// sweep, pooled per grid so the miss path allocates nothing at steady
// state.
type axisScratch struct {
	re, decayE []float64
}

// separableSweep advances occ without materialising a kernel: the
// emission-axis rates and decays are computed once into pooled scratch and
// the capture axis is folded in per row. Bit-identical to a kernel built
// for the same key.
func separableSweep(g *cetGrid, occ []float64, captureAF, emitAF, dt float64) {
	metSeparableSweep.Inc()
	sc, _ := g.scratch.Get().(*axisScratch)
	if sc == nil || len(sc.re) != g.ne {
		sc = &axisScratch{re: make([]float64, g.ne), decayE: make([]float64, g.ne)}
	}
	re, decayE := sc.re, sc.decayE
	for j := range re {
		re[j] = emitAF / g.tauE[j]
		decayE[j] = math.Exp(-re[j] * dt)
	}
	for i := 0; i < g.nc; i++ {
		var rc float64
		if captureAF > 0 {
			rc = captureAF / g.tauC[i]
		}
		dc := math.Exp(-rc * dt)
		row := occ[i*g.ne : (i+1)*g.ne]
		for j := range row {
			rate := rc + re[j]
			if rate <= 0 {
				continue
			}
			pInf := rc / rate
			row[j] = pInf + (row[j]-pInf)*(dc*decayE[j])
		}
	}
	g.scratch.Put(sc)
}

// scratchKernel returns a pooled kernel filled for the condition key — the
// batch sweep's answer to an uncached key: one O(nc·ne) materialisation
// (identical values to a cached kernel, see fillKernel) amortised across
// every device in the batch, where the per-device separable sweep would pay
// the nc·ne divisions once per device. Return it with putScratchKernel.
func (g *cetGrid) scratchKernel(captureAF, emitAF, dt float64) *evolveKernel {
	k, _ := g.kernelScratch.Get().(*evolveKernel)
	if k == nil || len(k.pInf) != g.nc*g.ne {
		k = &evolveKernel{
			pInf:  make([]float64, g.nc*g.ne),
			decay: make([]float64, g.nc*g.ne),
		}
	}
	g.fillKernel(k, captureAF, emitAF, dt)
	return k
}

// putScratchKernel recycles a scratchKernel result.
func (g *cetGrid) putScratchKernel(k *evolveKernel) {
	g.kernelScratch.Put(k)
}

// Shared-grid cache: devices built from equal Params reuse one immutable
// cetGrid (and with it one kernel cache), so a fleet of chips with a handful
// of distinct process corners pays for grid discretisation and kernel
// building once, not per core. Entries are refcounted: every NewDevice /
// Clone acquires a reference and Device.Release drops it, so a long-running
// service that registers and retires chips can recycle cache slots —
// zero-reference entries are evicted under cap pressure, while entries with
// live holders are pinned. Devices that never Release (short-lived
// experiment populations) simply keep their entries pinned, which matches
// the old never-evict behaviour.

// maxGridCache bounds the shared-grid cache. Population studies draw
// per-device parameter variations, each a distinct key; past the cap (when
// no idle entry can be evicted) those devices simply build private grids.
const maxGridCache = 128

// gridEntry is one refcounted shared grid.
type gridEntry struct {
	grid *cetGrid
	refs int
}

var (
	gridMu     sync.Mutex
	gridCache  = map[Params]*gridEntry{}
	gridBuilds uint64 // grids discretised since process start, under gridMu
)

// acquireGrid returns the shared grid for p with one reference held,
// building it on first use.
func acquireGrid(p Params) *cetGrid {
	gridMu.Lock()
	defer gridMu.Unlock()
	if e, ok := gridCache[p]; ok {
		e.refs++
		metGridHits.Inc()
		return e.grid
	}
	g := newCETGrid(p)
	gridBuilds++
	metGridBuilds.Inc()
	if len(gridCache) >= maxGridCache {
		for key, e := range gridCache {
			if e.refs == 0 {
				delete(gridCache, key)
				metGridEvictions.Inc()
				break
			}
		}
	}
	if len(gridCache) < maxGridCache {
		gridCache[p] = &gridEntry{grid: g, refs: 1}
		metGridEntries.Set(float64(len(gridCache)))
	}
	return g
}

// reacquireGrid adds a reference for an existing holder (Clone). A grid that
// was never admitted to the cache (or was built privately) has no entry; the
// call is then a no-op because private grids need no bookkeeping.
func reacquireGrid(p Params, g *cetGrid) {
	gridMu.Lock()
	defer gridMu.Unlock()
	if e, ok := gridCache[p]; ok && e.grid == g {
		e.refs++
	}
}

// releaseGrid drops one reference. The grid itself stays valid — release is
// bookkeeping that lets the cache recycle the slot once nobody holds it.
func releaseGrid(p Params, g *cetGrid) {
	gridMu.Lock()
	defer gridMu.Unlock()
	if e, ok := gridCache[p]; ok && e.grid == g && e.refs > 0 {
		e.refs--
	}
}

// GridStats describes the shared CET-grid cache at one instant.
type GridStats struct {
	// Entries is the number of distinct Params with a resident shared grid.
	Entries int
	// LiveRefs is the number of references currently held by devices.
	LiveRefs int
	// Builds counts grids discretised since process start; a steady fleet
	// stepping over a fixed corner set must not advance it.
	Builds uint64
}

// GridCacheStats reports the shared-grid cache state; fleet benchmarks use
// Builds to assert that warm stepping allocates no new grids.
func GridCacheStats() GridStats {
	gridMu.Lock()
	defer gridMu.Unlock()
	s := GridStats{Entries: len(gridCache), Builds: gridBuilds}
	for _, e := range gridCache {
		s.LiveRefs += e.refs
	}
	return s
}
