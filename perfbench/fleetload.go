package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"deepheal/internal/bti"
	"deepheal/internal/fleet"
)

const (
	fleetChips = 256
	// queryRate is the open-loop query rate, well under what the server
	// answers while a step batch holds both CPUs.
	queryRate = 200
	// directShare is the part of a phase spent on direct-call step
	// batches; the rest serves the fleet over HTTP.
	directShare = 0.3
	// replaySample is how many chips fleet-steady replays to check its
	// final state; fleet-churn replays every chip.
	replaySample = 16
)

// workloadMenu is the seeded workload mix. The few distinct specs give 24
// shared models over the 4 corners, as a fleet of real parts would.
var workloadMenu = []fleet.WorkloadSpec{
	{Kind: "constant", Util: 0.5},
	{Kind: "constant", Util: 0.9},
	{Kind: "periodic", BusySteps: 6, IdleSteps: 2},
	{Kind: "periodic", BusySteps: 3, IdleSteps: 5, Util: 0.8},
	{Kind: "iot", WakeEvery: 8, Active: 2},
	{Kind: "iot", WakeEvery: 24, Active: 4, Util: 0.7},
}

// fleetSpecs draws n chip specs from seed. Every (corner, workload) pair
// of the menu gets the same share of the fleet whatever the seed, so runs
// with different seeds step fleets of equal cost; the seed decides which
// chip gets which pair and each chip's sensor-noise seed.
func fleetSpecs(seed int64, n int) []fleet.ChipSpec {
	rng := rand.New(rand.NewSource(seed))
	corners := fleet.CornerNames()
	pairs := len(corners) * len(workloadMenu)
	perm := rng.Perm(n)
	specs := make([]fleet.ChipSpec, n)
	for i := range specs {
		pair := perm[i] % pairs
		specs[i] = fleet.ChipSpec{
			ID:       fmt.Sprintf("chip-%03d", i),
			Steps:    1 << 20, // effectively unbounded horizon
			Corner:   corners[pair%len(corners)],
			Seed:     rng.Int63n(1<<62) + 1,
			Workload: workloadMenu[pair/len(corners)],
		}
	}
	return specs
}

func register(specs []fleet.ChipSpec, opts fleet.Options) (*fleet.Manager, error) {
	m := fleet.NewManager(opts)
	for _, s := range specs {
		if _, err := m.Register(s); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// checkListing requires got to hold exactly the chips of want with equal
// statuses. Suspended is ignored: residency is the one field a residency
// cap is allowed to change.
func checkListing(got, want []fleet.ChipStatus) error {
	if len(got) != len(want) {
		return fmt.Errorf("listing has %d chips, want %d", len(got), len(want))
	}
	byID := make(map[string]fleet.ChipStatus, len(got))
	for _, s := range got {
		s.Suspended = false
		byID[s.ID] = s
	}
	for _, w := range want {
		w.Suspended = false
		g, ok := byID[w.ID]
		if !ok {
			return fmt.Errorf("chip %s missing from listing", w.ID)
		}
		if g != w {
			return fmt.Errorf("chip %s: got %+v, want %+v", w.ID, g, w)
		}
	}
	return nil
}

// replay registers specs in a fresh, fully resident manager and steps it
// one step at a time, as often as the measured fleet was stepped.
func replay(specs []fleet.ChipSpec, steps, workers int) ([]fleet.ChipStatus, error) {
	m, err := register(specs, fleet.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	for i := 0; i < steps; i++ {
		if _, err := m.StepAll(context.Background(), 1); err != nil {
			return nil, err
		}
	}
	return m.List(), nil
}

// runFleet serves a fleet the way a runtime reliability manager does:
// direct-call step batches at one worker and at N, then a closed-loop HTTP
// stepper beside an open-loop HTTP querier. With churn, a quarter of the
// chips may stay resident, so every batch suspends and rehydrates most of
// the fleet through compact snapshots.
func runFleet(p *phase, churn bool) error {
	ctx := context.Background()
	specs := fleetSpecs(p.seed, fleetChips)
	opts := fleet.Options{Workers: p.n}
	if churn {
		opts.MaxResident = fleetChips / 4
	}
	var setups []float64
	var m *fleet.Manager
	for i := 0; i < 5; i++ {
		if m != nil {
			m.Close()
		}
		start := time.Now()
		var err error
		if m, err = register(specs, opts); err != nil {
			return err
		}
		end := time.Now()
		p.tr.record("fleet.register", p.root, start, end)
		setups = append(setups, end.Sub(start).Seconds())
	}
	defer m.Close()
	p.e2e["setup_s"] = hdMedian(setups)

	steps := 1
	if _, err := m.StepAll(ctx, 1); err != nil { // warm-up: fill the kernel caches
		return err
	}
	p.loopStart()

	// Direct calls: one caller stepping chip by chip against StepAll over
	// the N-worker pool, alternated.
	var w1, wN []float64
	direct := time.Now()
	for i := 0; more(i, 2, direct, time.Duration(float64(p.budget)*directShare)); i++ {
		kind := abba(i, 2)
		start := time.Now()
		var err error
		if kind == 1 {
			_, closeSpan := p.tr.open("fleet.step_w1", p.root)
			for _, s := range specs {
				_, err = m.Step(ctx, s.ID, 1)
				p.op(err != nil)
				if err != nil {
					break
				}
			}
			closeSpan()
		} else {
			_, closeSpan := p.tr.open("fleet.stepall", p.root)
			_, err = m.StepAll(ctx, 1)
			closeSpan()
			p.op(err != nil)
		}
		d := time.Since(start)
		if err != nil {
			return err
		}
		p.firstUnitDone(i)
		steps++
		if kind == 1 {
			w1 = append(w1, d.Seconds())
		} else {
			wN = append(wN, d.Seconds())
		}
	}
	p.e2e["wall_w1_s"] = hdMedian(w1)
	p.e2e["wall_wN_s"] = hdMedian(wN)
	p.unitWall = hdMedian(wN)
	p.layer["fleet.stepall_ms"] = 1e3 * hdMedian(wN)

	batches, err := serveFleet(p, m, specs, steps, p.budget-time.Since(direct))
	if err != nil {
		return err
	}
	steps += batches
	p.loopEnd(float64(len(w1) + len(wN) + batches))
	if got := bti.GridCacheStats().Builds - p.before.gridBuilds; got != 0 {
		return fmt.Errorf("fleet: stepping built %d BTI grids after setup, want 0", got)
	}

	// The final state must equal a fully resident fleet's stepped as often.
	sample := specs
	if !churn {
		rng := rand.New(rand.NewSource(p.seed + 1))
		sample = nil
		for _, i := range rng.Perm(len(specs))[:replaySample] {
			sample = append(sample, specs[i])
		}
	}
	_, closeSpan := p.tr.open("check.replay", p.root)
	want, err := replay(sample, steps, p.n)
	closeSpan()
	if err != nil {
		return err
	}
	got := m.List()
	keep := make(map[string]bool, len(sample))
	for _, s := range sample {
		keep[s.ID] = true
	}
	var sub []fleet.ChipStatus
	for _, s := range got {
		if keep[s.ID] {
			sub = append(sub, s)
		}
	}
	if err := checkListing(sub, want); err != nil {
		return fmt.Errorf("fleet: final state differs from a fully resident replay: %w", err)
	}
	return nil
}

// serveFleet serves m, whose chips stand at step, over loopback HTTP for
// budget: one closed-loop client POSTs /v1/step while one open-loop client
// GETs chip status and schedule at queryRate. It returns the number of step
// batches served.
func serveFleet(p *phase, m *fleet.Manager, specs []fleet.ChipSpec, step int, budget time.Duration) (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: timedHandler(m.Handler(nil), p.tr), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	defer func() {
		_ = hs.Shutdown(context.Background())
		<-served
	}()

	start := time.Now()
	end := start.Add(budget)
	var wg sync.WaitGroup
	var stepErr error
	var stepOps, stepFails, batches int
	var cycles []float64 // seconds between consecutive batch completions
	stepper := newClient()
	defer stepper.CloseIdleConnections()
	wg.Add(1)
	go func() {
		defer wg.Done()
		want := step
		body := []byte(`{"steps":1}`)
		last := start
		for time.Now().Before(end) {
			id, closeSpan := p.tr.open("http.step", p.root)
			data, status, err := do(stepper, http.MethodPost, base+"/v1/step", body, id)
			closeSpan()
			stepOps++
			if failedResponse(status, err) {
				stepFails++
				continue
			}
			want++
			batches++
			if err := checkStepResponse(data, len(specs), want); err != nil {
				stepErr = err
				return
			}
			now := time.Now()
			cycles = append(cycles, now.Sub(last).Seconds())
			last = now
		}
	}()

	querier := newClient()
	defer querier.CloseIdleConnections()
	rng := rand.New(rand.NewSource(p.seed ^ 0x5eed))
	var queryErr error
	samples := openLoop(wallClock{}, start, end, time.Second/queryRate, func(int) bool {
		chip := specs[rng.Intn(len(specs))].ID
		path := "/v1/chips/" + chip
		if rng.Intn(2) == 1 {
			path += "/schedule"
		}
		id, closeSpan := p.tr.open("http.query", p.root)
		data, status, err := do(querier, http.MethodGet, base+path, nil, id)
		closeSpan()
		if failedResponse(status, err) {
			return true
		}
		var got struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &got); err != nil || got.ID != chip {
			queryErr = fmt.Errorf("fleet: GET %s answered for %q (%v)", path, got.ID, err)
		}
		return false
	})
	wg.Wait()
	p.attempted += stepOps
	p.failed += stepFails
	var lat, late []time.Duration
	for _, s := range samples {
		p.op(s.failed)
		lat = append(lat, s.latency())
		late = append(late, s.lateness())
	}
	if err := errors.Join(stepErr, queryErr); err != nil {
		return batches, err
	}
	if batches == 0 {
		return batches, fmt.Errorf("fleet: no step batch completed over HTTP")
	}
	p.e2e["ops_per_s"] = float64(len(specs)) / hdMedian(cycles)
	p.e2e["lat_p90_ms"] = windowedP90(samples, time.Second)

	// The listing served over HTTP must be the manager's own.
	data, status, err := do(querier, http.MethodGet, base+"/v1/chips", nil, 0)
	p.op(failedResponse(status, err))
	if failedResponse(status, err) {
		return batches, fmt.Errorf("fleet: GET /v1/chips: status %d: %v", status, err)
	}
	var listed struct {
		Chips []fleet.ChipStatus `json:"chips"`
	}
	if err := json.Unmarshal(data, &listed); err != nil {
		return batches, fmt.Errorf("fleet: GET /v1/chips: %w", err)
	}
	if err := checkListing(listed.Chips, m.List()); err != nil {
		return batches, fmt.Errorf("fleet: HTTP listing differs from the manager's: %w", err)
	}
	fleetLayerMetrics(p, lat, late)
	return batches, nil
}

// checkStepResponse requires a batch response to list every chip at the
// expected step.
func checkStepResponse(data []byte, chips, step int) error {
	var resp struct {
		Chips []struct {
			ID   string `json:"id"`
			Step int    `json:"step"`
		} `json:"chips"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("fleet: step response: %w", err)
	}
	sts := resp.Chips
	if len(sts) != chips {
		return fmt.Errorf("fleet: step response lists %d chips, want %d", len(sts), chips)
	}
	for _, s := range sts {
		if s.Step != step {
			return fmt.Errorf("fleet: step response has chip %s at step %d, want %d", s.ID, s.Step, step)
		}
	}
	return nil
}

// fleetLayerMetrics reports the server-side request times from the
// handler spans beside the client-side query tail and the generator's
// lateness.
func fleetLayerMetrics(p *phase, lat, late []time.Duration) {
	if p.tr == nil {
		return
	}
	var stepMS, queryMS []float64
	for _, s := range p.tr.snapshot() {
		switch s.Name {
		case "http.step.server":
			stepMS = append(stepMS, 1e3*(s.End-s.Start))
		case "http.query.server":
			queryMS = append(queryMS, 1e3*(s.End-s.Start))
		}
	}
	p.layer["http.step_ms"] = hdMedian(stepMS)
	p.layer["http.query_ms.p50"] = hdMedian(queryMS)
	tail := func(name string, xs []float64) {
		if v, err := percentile(xs, 0.99); err == nil {
			p.layer[name] = v
		}
	}
	tail("http.query_ms.p99", queryMS)
	p.layer["query.client_p50_ms"] = hdQuantile(msOf(lat), 0.5)
	tail("query.client_p99_ms", msOf(lat))
	tail("loadgen.late_ms.p99", msOf(late))
}

// windowedP90 is the median over consecutive windows of the 90th
// percentile of the latencies due in each window, so a burst of
// interference confined to a few windows does not set the run's figure.
// It takes the plain median: with a dozen windows, the Harrell–Davis
// weights would still give a burst window a say.
// Windows too short to hold ten samples beyond their p90 are skipped.
func windowedP90(samples []sample, window time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	byWindow := map[int64][]float64{}
	t0 := samples[0].due
	for _, s := range samples {
		w := int64(s.due.Sub(t0) / window)
		byWindow[w] = append(byWindow[w], float64(s.latency())/float64(time.Millisecond))
	}
	var p90s []float64
	for _, ms := range byWindow {
		if v, err := percentile(ms, 0.90); err == nil {
			p90s = append(p90s, v)
		}
	}
	return median(p90s)
}
