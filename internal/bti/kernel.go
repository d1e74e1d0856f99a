package bti

import (
	"math"
	"sync"
)

// The CET evolution kernel exploits the separable structure of the trap
// update. A cell (i, j) relaxes toward its equilibrium occupancy with rate
// r_ij = rc_i + re_j, so the per-substep decay factorises:
//
//	exp(-(rc_i+re_j)·dt) = exp(-rc_i·dt) · exp(-re_j·dt)
//
// Evolving a grid therefore needs O(nc+ne) exponentials, not O(nc·ne). Every
// update runs through one phase loop (phase.go), which resolves each
// condition key (captureAF, emitAF, dt) to one of two sweeps:
//
//   - A kernel: the fused per-cell pInf/decay fields, materialised once, so
//     every sweep through it is a pure fused multiply-add with no divisions
//     or transcendentals. Kernels come from the cross-phase cache below, or,
//     for an uncached key that several sweeps share (the full substeps of a
//     long phase, the devices of a batch), from pooled scratch filled once
//     for the phase.
//   - A direct separable sweep: the axis vectors into pooled scratch, fused
//     per cell on the fly. It serves keys used once — a phase's tail, a
//     single-substep phase, a recovery flush, whose sweep reduces to
//     occ·decayE.
//
// The cache serves keys that recur across phases. A key is promoted to a
// cached kernel when it is requested from two distinct Apply phases (each
// phase draws a fresh token from the grid's atomic counter). Promotion
// deliberately ignores repeats within one phase: the phase loop already
// holds its kernel for those, and materialising a kernel for a key that
// never returns is pure churn. Steady fleets repeat keys bitwise and live
// on the cache; campaigns feed every core a slightly different temperature
// each step, so their keys rarely return. The two sweeps apply identical
// operations in identical order, so they agree bit-for-bit; both match the
// naive per-cell-exponential reference within ~1e-15 relative (see
// kernel_test.go).

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
			g.noteSeen(key, phase)
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
		g.noteSeen(key, first)
		metKernelRefusals.Inc()
	}
	g.mu.Unlock()
	return k
}

// noteSeen records key's first-request phase, clearing the seen map
// wholesale once it holds maxSeenKeys entries. Clearing in place keeps the
// map's buckets, so a long run of one-shot keys does not reallocate them
// every maxSeenKeys requests. g.mu must be held.
func (g *cetGrid) noteSeen(key condKey, phase uint64) {
	if g.seen == nil {
		g.seen = make(map[condKey]uint64, 64)
	} else if len(g.seen) >= maxSeenKeys {
		clear(g.seen)
	}
	g.seen[key] = phase
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
// pooled scratch kernels both fill through here, so the two are
// bit-identical by construction.
func (g *cetGrid) fillKernel(k *evolveKernel, captureAF, emitAF, dt float64) {
	ne := g.ne
	ax := g.axes(captureAF, emitAF, dt)
	for i, rc := range ax.rc {
		dc := ax.dc[i]
		base := i * ne
		for j, re := range ax.re {
			rate := rc + re
			if rate <= 0 {
				k.pInf[base+j] = 0 // the cell is frozen
				k.decay[base+j] = 1
				continue
			}
			k.pInf[base+j] = rc / rate
			k.decay[base+j] = dc * ax.decayE[j]
		}
	}
	g.axisPool.Put(ax)
}

// kernelSweep advances the occupancy vector by one kernel substep — a pure
// fused multiply-add sweep with no divisions or transcendentals — and
// returns the new Σ weight·occ, accumulated in gridShift's order so it
// equals gridShift(g, occ) bitwise.
func kernelSweep(k *evolveKernel, weight, occ []float64) float64 {
	pInf := k.pInf[:len(occ)]
	decay := k.decay[:len(occ)]
	w := weight[:len(occ)]
	var s float64
	for idx := range occ {
		v := pInf[idx] + (occ[idx]-pInf[idx])*decay[idx]
		occ[idx] = v
		s += w[idx] * v
	}
	return s
}

// axisScratch holds the per-axis factors of one condition key: capture
// and emission rates and their substep decays. The per-cell update is
// rate = rc[i] + re[j], decay = dc[i]·decayE[j]. Pooled per grid, so
// separable sweeps and kernel fills allocate nothing at steady state.
type axisScratch struct {
	rc, dc, re, decayE []float64
}

// axes returns pooled axis factors for the condition key; return them to
// g.axisPool. Outside stress (captureAF ≤ 0) the capture axis is rc = 0,
// dc = 1 — exactly what its exponential evaluates to — without computing
// it.
func (g *cetGrid) axes(captureAF, emitAF, dt float64) *axisScratch {
	ax, _ := g.axisPool.Get().(*axisScratch)
	if ax == nil {
		ax = &axisScratch{
			rc: make([]float64, g.nc), dc: make([]float64, g.nc),
			re: make([]float64, g.ne), decayE: make([]float64, g.ne),
		}
	}
	for j := range ax.re {
		ax.re[j] = emitAF / g.tauE[j]
		ax.decayE[j] = math.Exp(-ax.re[j] * dt)
	}
	for i := range ax.rc {
		if captureAF > 0 {
			ax.rc[i] = captureAF / g.tauC[i]
			ax.dc[i] = math.Exp(-ax.rc[i] * dt)
		} else {
			ax.rc[i], ax.dc[i] = 0, 1
		}
	}
	return ax
}

// separableSweep advances occ by one substep without materialising a
// kernel, fusing the axis factors per cell, and returns the new
// Σ weight·occ in gridShift's order. It is bit-identical to a kernel built
// for the same key.
//
// Outside stress (captureAF ≤ 0) every cell has pInf = 0 and dc = 1, so the
// general form pInf + (occ−pInf)·dc·decayE reduces to occ·decayE: no
// divisions, no capture-axis exponentials. The two agree bitwise for every
// occupancy except −0, which no update produces (occupancies start at +0).
func separableSweep(g *cetGrid, occ []float64, captureAF, emitAF, dt float64) float64 {
	metSeparableSweep.Inc()
	ax := g.axes(captureAF, emitAF, dt)
	ne := g.ne
	var s float64
	for i, rc := range ax.rc {
		row := occ[i*ne : (i+1)*ne]
		if captureAF <= 0 {
			for j, de := range ax.decayE {
				row[j] *= de
			}
		} else {
			dc := ax.dc[i]
			for j, re := range ax.re {
				rate := rc + re
				if rate <= 0 {
					continue
				}
				pInf := rc / rate
				row[j] = pInf + (row[j]-pInf)*(dc*ax.decayE[j])
			}
		}
		for j, w := range g.weight[i*ne : (i+1)*ne] {
			s += w * row[j]
		}
	}
	g.axisPool.Put(ax)
	return s
}

// scratchKernel returns a pooled kernel filled for the condition key — the
// answer to an uncached key that several sweeps will use: one O(nc·ne)
// materialisation (identical values to a cached kernel, see fillKernel)
// amortised across every substep of a phase and every device of a batch,
// where each separable sweep would redo the nc·ne rate divisions. Return
// it to g.kernelScratch.
func (g *cetGrid) scratchKernel(captureAF, emitAF, dt float64) *evolveKernel {
	k, _ := g.kernelScratch.Get().(*evolveKernel)
	if k == nil {
		k = &evolveKernel{
			pInf:  make([]float64, g.nc*g.ne),
			decay: make([]float64, g.nc*g.ne),
		}
	}
	g.fillKernel(k, captureAF, emitAF, dt)
	metBatchScratchKernels.Inc()
	return k
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
