package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/campaign/dist"
	"deepheal/internal/experiments"
)

// drainSelection is the many-small-point part of the paper campaign, where
// the executor's lease, shard, fsync and poll costs are a large share of
// the wall instead of hiding under seconds of compute.
var drainSelection = []string{
	"multiplier", "ablation-bti-cond", "table1", "fig4", "ablation-rebalance",
	"fig5", "fig6", "fig7", "ablation-em-freq",
}

// drainStats is what one drain reports beside its wall time.
type drainStats struct {
	setup, publish, wait, merge, assemble, lag float64 // seconds
	workerWall                                 []float64
	cacheHits, steals, quarantined             int
	shardBytes                                 int64
	digest                                     string
	fam                                        map[string]float64 // summed point wall per family
	done                                       []float64          // ms from the drain's start to each point's end
}

// checkDrain requires the assembled output to equal the serial run's with
// no point quarantined. Lease steals are reported, not failed: with no
// worker lost, a steal means a worker read a lease file between its
// creator's O_EXCL create and its write, took the empty file for a corrupt
// claim and computed the point a second time. The output stays identical;
// the duplicate work shows in dist.steals.
func checkDrain(st drainStats, serial string) error {
	switch {
	case st.digest != serial:
		return fmt.Errorf("dist-drain: assembled output %s differs from the serial run's %s", st.digest, serial)
	case st.quarantined != 0:
		return fmt.Errorf("dist-drain: %d point(s) quarantined, want 0", st.quarantined)
	}
	return nil
}

// runDrain publishes the selection into a fresh directory, drains it with
// one or N in-process workers (alternated), merges the shards and
// assembles the result with a one-worker campaign over the merged journal,
// as `deepheal coordinate` does.
func runDrain(p *phase) error {
	ctx := context.Background()
	layer, err := checkLayerMap(experiments.SortedIDs(), families)
	if err != nil {
		return err
	}
	tasks, err := experiments.Plans(drainSelection...)
	if err != nil {
		return err
	}
	_, closeSpan := p.tr.open("check.serial", p.root)
	outs, err := campaign.Run(ctx, tasks, campaign.Options{Workers: 1})
	closeSpan()
	if err != nil {
		return fmt.Errorf("dist-drain: serial reference: %w", err)
	}
	serial := outputDigest(outs)

	p.loopStart()
	var setups, latN []float64
	walls := map[int][]float64{}
	var stats []drainStats
	var points int
	famW1 := map[string]float64{}
	start := time.Now()
	for i := 0; more(i, 2, start, p.budget); i++ {
		workers := abba(i, p.n)
		dir := filepath.Join(p.dir, fmt.Sprintf("drain-%03d", i))
		wall, st, n, err := drainOnce(ctx, p, dir, i, workers, layer)
		p.op(err != nil)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := checkDrain(st, serial); err != nil {
			return err
		}
		points = n
		setups = append(setups, st.setup)
		walls[workers] = append(walls[workers], wall.Seconds())
		stats = append(stats, st)
		p.firstUnitDone(i)
		if workers == 1 {
			famW1 = st.fam
		}
		if workers == p.n {
			latN = append(latN, st.done...)
		}
	}
	p.loopEnd(float64(len(stats)))

	p.e2e["setup_s"] = hdMedian(setups)
	p.e2e["wall_w1_s"] = hdMedian(walls[1])
	p.e2e["wall_wN_s"] = hdMedian(walls[p.n])
	p.e2e["ops_per_s"] = float64(points) / hdMedian(walls[p.n])
	setLatency(p, latN)
	p.unitWall = hdMedian(walls[p.n])
	drainLayerMetrics(p, stats)
	if n := p.layer["dist.steals"]; n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %g lease(s) stolen in %d drains with no worker lost (duplicate point computations)\n", n, len(stats))
	}
	for _, f := range familyNames {
		p.layer[f+".points_s"] = famW1[f]
	}
	return nil
}

// drainOnce runs one plan → publish → drain → merge → assemble cycle in
// dir. The returned wall runs from starting the workers to the assembled
// output; planning and publishing are set-up.
func drainOnce(ctx context.Context, p *phase, dir string, round, workers int, layer map[string]string) (time.Duration, drainStats, int, error) {
	st := drainStats{fam: map[string]float64{}}
	start := time.Now()
	tasks, err := experiments.Plans(drainSelection...)
	planned := time.Now()
	p.tr.record("experiments.plans", p.root, start, planned)
	if err != nil {
		return 0, st, 0, err
	}
	m, err := dist.Publish(dir, drainSelection, tasks)
	published := time.Now()
	p.tr.record("dist.publish", p.root, planned, published)
	st.setup = published.Sub(start).Seconds()
	st.publish = published.Sub(planned).Seconds()
	if err != nil {
		return 0, st, 0, err
	}

	drainID, closeDrain := p.tr.open("dist.drain", p.root)
	var mu sync.Mutex
	sink := func(fam string, start, end time.Time) {
		mu.Lock()
		st.fam[fam] += end.Sub(start).Seconds()
		st.done = append(st.done, msSince(published, end))
		mu.Unlock()
	}
	type ret struct {
		stats dist.WorkerStats
		end   time.Time
		err   error
	}
	rets := make([]ret, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id, closeSpan := p.tr.open("dist.worker", drainID)
			timed := timePoints(tasks, layer, p.tr, id, sink)
			opts := dist.WorkerOptions{ID: fmt.Sprintf("w%d-%d-%d", p.seed, round, w)}
			s, err := dist.RunWorker(ctx, dir, m, timed, opts)
			closeSpan()
			rets[w] = ret{s, time.Now(), err}
		}(w)
	}
	waitStart := time.Now()
	waitErr := dist.WaitDrained(ctx, dir, m, dist.DrainOptions{})
	drained := time.Now()
	wg.Wait()
	closeDrain()
	st.wait = drained.Sub(waitStart).Seconds()
	var lastWorker time.Time
	var errs []error
	for _, r := range rets {
		errs = append(errs, r.err)
		st.workerWall = append(st.workerWall, r.stats.WallSeconds)
		st.cacheHits += r.stats.CacheHits
		st.steals += r.stats.Stolen
		st.quarantined += r.stats.Quarantined
		if r.end.After(lastWorker) {
			lastWorker = r.end
		}
	}
	if err := errors.Join(append(errs, waitErr)...); err != nil {
		return 0, st, 0, fmt.Errorf("dist-drain: %w", err)
	}
	if d := drained.Sub(lastWorker); d > 0 {
		p.tr.record("dist.drain_lag", drainID, lastWorker, drained)
		st.lag = d.Seconds()
	}
	if q, err := dist.QuarantinedFailures(dir, m); err != nil {
		return 0, st, 0, err
	} else {
		st.quarantined += len(q)
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "shards", "*"))
	for _, s := range shards {
		if fi, err := os.Stat(s); err == nil {
			st.shardBytes += fi.Size()
		}
	}

	mergeStart := time.Now()
	if _, err := dist.MergeShards(dir); err != nil {
		return 0, st, 0, err
	}
	merged := time.Now()
	p.tr.record("dist.merge", p.root, mergeStart, merged)
	st.merge = merged.Sub(mergeStart).Seconds()

	j, err := campaign.OpenJournal(dir)
	if err != nil {
		return 0, st, 0, err
	}
	outs, err := campaign.Run(ctx, tasks, campaign.Options{Workers: 1, Journal: j})
	cerr := j.Close()
	end := time.Now()
	p.tr.record("dist.assemble", p.root, merged, end)
	st.assemble = end.Sub(merged).Seconds()
	if err := errors.Join(err, cerr); err != nil {
		return 0, st, 0, fmt.Errorf("dist-drain: assemble: %w", err)
	}
	st.digest = outputDigest(outs)
	return end.Sub(published), st, len(m.Points), nil
}

// drainLayerMetrics reports the executor's per-drain costs as medians.
func drainLayerMetrics(p *phase, stats []drainStats) {
	var publish, wait, merge, assemble, lag, workerWall, hits, steals, shardBytes []float64
	for _, st := range stats {
		publish = append(publish, st.publish)
		wait = append(wait, st.wait)
		merge = append(merge, st.merge)
		assemble = append(assemble, st.assemble)
		lag = append(lag, 1e3*st.lag)
		workerWall = append(workerWall, st.workerWall...)
		hits = append(hits, float64(st.cacheHits))
		steals = append(steals, float64(st.steals))
		shardBytes = append(shardBytes, float64(st.shardBytes))
	}
	p.layer["dist.publish_s"] = hdMedian(publish)
	p.layer["dist.wait_drained_s"] = hdMedian(wait)
	p.layer["dist.merge_s"] = hdMedian(merge)
	p.layer["dist.assemble_s"] = hdMedian(assemble)
	p.layer["dist.drain_lag_ms"] = hdMedian(lag)
	p.layer["dist.worker_wall_s"] = hdMedian(workerWall)
	p.layer["dist.cache_hits"] = hdMedian(hits)
	p.layer["dist.steals"] = sum(steals)
	p.layer["dist.shard_bytes"] = hdMedian(shardBytes)
}
