// Command perfbench is deepheal's benchmark: four workloads that drive the
// campaign engine, the fleet service and the distributed executor through
// their public functions, check the outputs, and print every end-to-end
// metric (or, with --trace 1, every per-layer metric) as the last line of
// standard output. BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md in this directory explains them.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet-steady --seed 3 --seconds 20 --trace 0
//	bash perfbench/run.sh compare base.txt head.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"deepheal/internal/obs"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(p *phase) error{
	"paper-all":    runPaper,
	"fleet-steady": func(p *phase) error { return runFleet(p, false) },
	"fleet-churn":  func(p *phase) error { return runFleet(p, true) },
	"dist-drain":   runDrain,
}

// phase is one measured stretch of a workload run. An untraced run is one
// phase; a traced run is a traced phase followed by an untraced one, whose
// unit walls differ by the tracing overhead.
type phase struct {
	seed   int64
	budget time.Duration // how long the measured loop runs
	n      int           // worker and connection bound: the CPU count
	dir    string        // directory for drain files, inside the checkout

	tr   *tracer       // nil when untraced
	root int           // root span ID
	reg  *obs.Registry // nil when untraced

	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	unitWall  float64 // median wall of the N-worker unit, for the overhead
	before    probe   // taken at the start of the measured loop
}

func newPhase(seed int64, budget time.Duration, dir string) *phase {
	return &phase{seed: seed, budget: budget, n: runtime.NumCPU(), dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op counts one operation and whether it failed.
func (p *phase) op(failed bool) {
	p.attempted++
	if failed {
		p.failed++
	}
}

// loopStart marks the start of the measured loop for the obs deltas.
func (p *phase) loopStart() { p.before = takeProbe(p.reg) }

// loopEnd records the per-layer counters of the measured loop, normalised
// by units of work (campaigns, fleet batches or drains).
func (p *phase) loopEnd(units float64) {
	if p.reg != nil {
		layerFromProbes(p.layer, p.before, takeProbe(p.reg), units)
	}
}

// firstUnitDone records the heap the workload retains after its first unit
// of work. That unit runs on one worker, in the same order in every run, so
// the caches it leaves behind do not depend on how parallel units
// interleaved; later units would make the figure vary with that order.
func (p *phase) firstUnitDone(i int) {
	if i == 0 {
		p.e2e["live_heap_mb"] = liveHeapMB()
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed: chip specs, query order, worker ids")
	seconds := fs.Int("seconds", 20, "length of the measured loop")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics and the trace table instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	drive, ok := workloads[*name]
	if !ok || !spec.hasWorkload(*name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d", *name, *seed))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	budget := time.Duration(*seconds) * time.Second
	var p *phase
	var runErr error
	if *trace == 0 {
		p = newPhase(*seed, budget, dir)
		runErr = drive(p)
	} else {
		p, runErr = traced(*name, *seed, budget, dir, drive)
	}
	values, defs := p.e2e, spec.EndToEnd
	if *trace == 1 {
		values, defs = p.layer, spec.PerLayer
	}
	res := result{Correct: runErr == nil && p.failed == 0, Attempted: p.attempted, Failed: p.failed}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
	}
	res.Metrics, err = collect(defs, values, *trace == 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	st := stampNow()
	rec, _ := json.Marshal(record{Stamp: st, Workload: *name, Seed: *seed, Trace: *trace, Result: res})
	fmt.Printf("%s%s\n", recordPrefix, rec)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// traced runs a traced phase over the first half of the budget and an
// untraced one over the second, prints the reconciled table and returns the
// traced phase with the untraced one's operations added. The traced phase
// goes first so the process-wide instruments see every cache and grid from
// a cold start.
func traced(name string, seed int64, budget time.Duration, dir string, drive func(*phase) error) (*phase, error) {
	t := newPhase(seed, budget/2, dir)
	t.tr, t.reg = newTracer(), obs.NewRegistry()
	enableMetrics(t.reg)
	var closeRoot func()
	t.root, closeRoot = t.tr.open(rootName, 0)
	err := drive(t)
	closeRoot()
	enableMetrics(nil)
	t.layer["go.peak_rss_mb"] = peakRSSMB()
	if err != nil {
		return t, err
	}
	u := newPhase(seed, budget/2, dir)
	err = drive(u)
	t.attempted += u.attempted
	t.failed += u.failed
	if err != nil {
		return t, err
	}

	spans := t.tr.snapshot()
	self := selfTimes(spans)
	writeTable(os.Stdout, name, spans, self)
	if w := t.layer["campaign.wall_s.wN"]; w > 0 {
		model := t.layer["campaign.lpt_model_s.wN"]
		fmt.Printf("campaign at %d workers: measured %.3f s, LPT model %.3f s, gap %+.3f s\n", t.n, w, model, w-model)
	}
	t.layer["trace.wall_s"] = spans[t.root-1].End - spans[t.root-1].Start
	t.layer["other_s"] = self[rootName]
	t.layer["trace.spans"] = float64(len(spans))
	for n, v := range self {
		if n != rootName {
			t.layer[selfMetricName(n)] = v
		}
	}
	t.layer["trace.overhead_s"] = t.unitWall - u.unitWall
	if u.unitWall > 0 {
		t.layer["trace.overhead_frac"] = (t.unitWall - u.unitWall) / u.unitWall
	}
	fmt.Printf("tracing overhead: N-worker unit %.4f s traced vs %.4f s untraced (%+.1f%%)\n",
		t.unitWall, u.unitWall, 100*t.layer["trace.overhead_frac"])
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	fmt.Printf("spans written to %s\n", path)
	return t, writeSpans(path, spans)
}

// collect builds the printed metric set from defs. End-to-end metrics must
// all have been measured and be non-zero; per-layer metrics a workload does
// not touch read 0. A measured value outside defs is an error, so the
// program and BENCHMARK.json cannot drift apart.
func collect(defs []metricDef, values map[string]float64, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	var missing []string
	for _, d := range defs {
		known[d.Name] = true
		v, ok := values[d.Name]
		if required && (!ok || v == 0) {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return out, fmt.Errorf("metrics out of step with BENCHMARK.json: unmeasured %v, unlisted %v", missing, extra)
	}
	return out, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
