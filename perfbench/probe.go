package main

import (
	"runtime"
	"runtime/metrics"

	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/campaign/dist"
	"deepheal/internal/core"
	"deepheal/internal/fleet"
	"deepheal/internal/obs"
)

// enableMetrics installs reg in every instrumented package (nil disables).
func enableMetrics(reg *obs.Registry) {
	core.EnableMetrics(reg)
	campaign.EnableMetrics(reg)
	fleet.EnableMetrics(reg)
	dist.EnableMetrics(reg)
}

// probe is a point-in-time reading of the program's own instruments and of
// the Go runtime.
type probe struct {
	snap       *obs.Snapshot
	gridBuilds uint64
	gcCPU      float64 // seconds
	usedCPU    float64 // seconds, idle excluded
	allocBytes float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func takeProbe(reg *obs.Registry) probe {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return probe{
		snap:       reg.Snapshot(),
		gridBuilds: bti.GridCacheStats().Builds,
		gcCPU:      val(0),
		usedCPU:    val(1) - val(2),
		allocBytes: val(3),
	}
}

var stageNames = []string{"plan", "electrical", "thermal", "wearout", "sense", "record"}

// layerFromProbes fills the counter-derived per-layer metrics of a
// measured loop that did units of work between probes a and b.
func layerFromProbes(out map[string]float64, a, b probe, units float64) {
	if units <= 0 {
		units = 1
	}
	counter := func(name string) float64 {
		return float64(b.snap.Counters[name] - a.snap.Counters[name])
	}
	histSum := func(name string) float64 { return b.snap.Histograms[name].Sum - a.snap.Histograms[name].Sum }
	histCount := func(name string) float64 {
		return float64(b.snap.Histograms[name].Count - a.snap.Histograms[name].Count)
	}
	histMeanMS := func(name string) float64 {
		if n := histCount(name); n > 0 {
			return 1e3 * histSum(name) / n
		}
		return 0
	}
	for _, st := range stageNames {
		out["engine.stage_s."+st] = histSum(`deepheal_engine_stage_seconds{stage="`+st+`"}`) / units
	}
	out["core.step_ms"] = histMeanMS("deepheal_sim_step_seconds")
	hits, misses := counter("deepheal_bti_kernel_hits_total"), counter("deepheal_bti_kernel_misses_total")
	if hits+misses > 0 {
		out["bti.kernel_hit_ratio"] = hits / (hits + misses)
	}
	out["bti.kernel_refusals"] = counter("deepheal_bti_kernel_admission_refusals_total") / units
	out["bti.kernel_resident_floats"] = b.snap.Gauges["deepheal_bti_kernel_resident_floats"]
	out["bti.separable_sweeps"] = counter("deepheal_bti_separable_sweeps_total") / units
	out["bti.grid_builds"] = float64(b.gridBuilds - a.gridBuilds)
	out["mathx.cholesky_solves"] = counter("deepheal_cholesky_solves_total") / units
	out["mathx.cg_iterations"] = counter("deepheal_cg_iterations_total") / units
	out["fleet.rehydrates_per_batch"] = counter("deepheal_fleet_rehydrates_total") / units
	out["core.checkpoint_save_ms"] = histMeanMS("deepheal_checkpoint_save_seconds")
	out["core.checkpoint_restore_ms"] = histMeanMS("deepheal_checkpoint_restore_seconds")
	if saves := counter("deepheal_checkpoint_saves_total"); saves > 0 {
		out["core.checkpoint_bytes"] = counter("deepheal_checkpoint_bytes_total") / saves
	}
	out["fleet.snapshot_resident_mb"] = b.snap.Gauges["deepheal_fleet_snapshot_resident_bytes"] / (1 << 20)
	out["dist.leases"] = counter("deepheal_dist_leases_total") / units
	if cpu := b.usedCPU - a.usedCPU; cpu > 0 {
		out["go.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	out["go.alloc_mb"] = (b.allocBytes - a.allocBytes) / units / (1 << 20)
}

// liveHeapMB collects garbage and returns the heap still reachable: the
// memory the workload retains (fleet chips, kernel caches, grids), which
// unlike the peak resident set does not depend on when collections ran.
// The second collection empties the sync.Pool victim caches, whose content
// the first one keeps or drops depending on earlier collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
