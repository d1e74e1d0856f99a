package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/experiments"
)

// pinnedPaperDigest is the digest of every experiment's formatted output
// (see outputDigest) as `deepheal all` produces it. A change that alters any
// experiment's table or series changes it, and paper-all then fails.
const pinnedPaperDigest = "9f8b098ca2e443e2"

// outputDigest hashes each outcome's id, title and formatted result, in
// order. A failed experiment contributes its error, so it cannot match.
func outputDigest(outs []campaign.Outcome) string {
	h := sha256.New()
	for _, o := range outs {
		r, ok := o.Value.(experiments.Result)
		if o.Err != nil || !ok {
			fmt.Fprintf(h, "%s failed: %v\n", o.Task, o.Err)
			continue
		}
		fmt.Fprintf(h, "%s\n%s\n%s\n", r.ID(), r.Title(), r.Format())
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// checkPaper requires every campaign's output, at every worker count, to
// match the pinned digest.
func checkPaper(digests map[int][]string, pinned string) error {
	for workers, ds := range digests {
		for i, d := range ds {
			if d != pinned {
				return fmt.Errorf("paper-all: campaign %d at %d worker(s) produced output %s, want %s", i, workers, d, pinned)
			}
		}
	}
	return nil
}

// more reports whether to start unit i: the first min units always run,
// later ones while the budget lasts.
func more(i, min int, start time.Time, budget time.Duration) bool {
	return i < min || time.Since(start) < budget
}

// abba is the order in which units alternate between one worker and N, so
// drift during a run (warming caches, a neighbour's load) touches both.
func abba(i, n int) int {
	if i%4 == 1 || i%4 == 2 {
		return n
	}
	return 1
}

// timePoints returns copies of tasks whose point Run functions report
// their start and end to sink and, when traced, record a span named after
// the point's physics family under parent. Keys, hashes and results are
// untouched.
func timePoints(tasks []campaign.Task, layer map[string]string, tr *tracer, parent int, sink func(fam string, start, end time.Time)) []campaign.Task {
	out := make([]campaign.Task, len(tasks))
	for i, t := range tasks {
		fam := layer[t.ID]
		pts := make([]campaign.Point, len(t.Points))
		for j, pt := range t.Points {
			run := pt.Run
			pt.Run = func(ctx context.Context) (any, error) {
				start := time.Now()
				v, err := run(ctx)
				end := time.Now()
				tr.record("point."+fam, parent, start, end)
				sink(fam, start, end)
				return v, err
			}
			pts[j] = pt
		}
		t.Points = pts
		out[i] = t
	}
	return out
}

// campaignRun is what one campaign leaves for the metrics; the outcomes
// themselves are dropped so the retained heap does not grow with the run.
type campaignRun struct {
	workers   int
	wall      float64
	compute   float64            // summed wall of the computed points, s
	points    []float64          // each computed point's wall, s
	fam       map[string]float64 // summed point wall per family, s
	run, memo int
	done      []float64 // ms from the campaign's start to each computed point's end
}

// summarize reduces a campaign's outcomes to its campaignRun.
func summarize(workers int, wall float64, outs []campaign.Outcome, layer map[string]string, done []float64) campaignRun {
	r := campaignRun{workers: workers, wall: wall, fam: map[string]float64{}, done: done}
	for _, o := range outs {
		for _, pt := range o.Points {
			if pt.Source != "run" {
				r.memo++
				continue
			}
			r.run++
			s := pt.WallMS / 1e3
			r.compute += s
			r.points = append(r.points, s)
			r.fam[layer[o.Task]] += s
		}
	}
	return r
}

// runPaper runs every registered experiment through campaign.Run, the way
// `deepheal all -parallel 1|N` does, alternating the two widths.
func runPaper(p *phase) error {
	layer, err := checkLayerMap(experiments.SortedIDs(), families)
	if err != nil {
		return err
	}
	var setups []float64
	plans := func() ([]campaign.Task, error) {
		start := time.Now()
		tasks, err := experiments.Plans()
		end := time.Now()
		p.tr.record("experiments.plans", p.root, start, end)
		setups = append(setups, end.Sub(start).Seconds())
		return tasks, err
	}
	for i := 0; i < 3; i++ {
		if _, err := plans(); err != nil {
			return err
		}
	}

	p.loopStart()
	var runs []campaignRun
	digests := map[int][]string{}
	start := time.Now()
	// Three campaigns at least: two at N workers hold enough computed
	// points (2 × 99) for a p90 with ten beyond it.
	for i := 0; more(i, 3, start, p.budget); i++ {
		workers := abba(i, p.n)
		tasks, err := plans()
		if err != nil {
			return err
		}
		id, closeSpan := p.tr.open("campaign.run", p.root)
		var mu sync.Mutex
		var done []float64
		var t0 time.Time
		tasks = timePoints(tasks, layer, p.tr, id, func(_ string, _, end time.Time) {
			mu.Lock()
			done = append(done, msSince(t0, end))
			mu.Unlock()
		})
		t0 = time.Now()
		outs, err := campaign.Run(context.Background(), tasks, campaign.Options{Workers: workers})
		wall := time.Since(t0)
		closeSpan()
		for _, o := range outs {
			for _, pt := range o.Points {
				p.op(pt.Err != "")
			}
		}
		if err != nil {
			return fmt.Errorf("paper-all: campaign at %d worker(s): %w", workers, err)
		}
		runs = append(runs, summarize(workers, wall.Seconds(), outs, layer, done))
		digests[workers] = append(digests[workers], outputDigest(outs))
		p.firstUnitDone(i)
	}
	p.loopEnd(float64(len(runs)))
	if err := checkPaper(digests, pinnedPaperDigest); err != nil {
		return err
	}
	paperMetrics(p, runs)
	p.e2e["setup_s"] = hdMedian(setups)
	return nil
}

// paperMetrics derives the end-to-end and campaign-layer metrics from the
// campaigns' own outcome statistics.
func paperMetrics(p *phase, runs []campaignRun) {
	walls := map[int][]float64{}
	compute := map[int][]float64{}
	var latN, idleN, maxN, rateN []float64
	var lastW1 campaignRun
	for _, r := range runs {
		walls[r.workers] = append(walls[r.workers], r.wall)
		compute[r.workers] = append(compute[r.workers], r.compute)
		p.layer["campaign.points_run"] = float64(r.run)
		p.layer["campaign.points_memo"] = float64(r.memo)
		if r.workers == 1 {
			lastW1 = r
		}
		if r.workers == p.n {
			rateN = append(rateN, float64(r.run)/r.wall)
			idleN = append(idleN, float64(p.n)*r.wall-r.compute)
			maxN = append(maxN, sorted(r.points)[len(r.points)-1])
			latN = append(latN, r.done...)
		}
	}
	p.unitWall = hdMedian(walls[p.n])
	p.e2e["wall_w1_s"] = hdMedian(walls[1])
	p.e2e["wall_wN_s"] = hdMedian(walls[p.n])
	p.e2e["ops_per_s"] = hdMedian(rateN)
	setLatency(p, latN)

	p.layer["campaign.wall_s.w1"] = hdMedian(walls[1])
	p.layer["campaign.wall_s.wN"] = hdMedian(walls[p.n])
	p.layer["campaign.compute_s.w1"] = hdMedian(compute[1])
	p.layer["campaign.compute_s.wN"] = hdMedian(compute[p.n])
	p.layer["campaign.inflation.wN"] = hdMedian(compute[p.n]) / hdMedian(compute[1])
	p.layer["campaign.idle_s.wN"] = hdMedian(idleN)
	p.layer["campaign.max_point_s"] = hdMedian(maxN)
	p.layer["campaign.lpt_model_s.wN"] = lptMakespan(lastW1.points, p.n)
	for _, f := range familyNames {
		p.layer[f+".points_s"] = lastW1.fam[f]
	}
}

// setLatency reports the 90th percentile of the time to each operation's
// result. A run with too few samples reports 0, which fails the run's check
// that every end-to-end metric was measured.
func setLatency(p *phase, ms []float64) {
	if v, err := percentile(ms, 0.90); err == nil {
		p.e2e["lat_p90_ms"] = v
	}
}

func msSince(start, end time.Time) float64 {
	return float64(end.Sub(start)) / float64(time.Millisecond)
}
