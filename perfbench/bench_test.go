package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepheal/internal/fleet"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, err := percentile(xs, 0.90); err != nil || math.Abs(v-90.4) > 0.5 {
		t.Fatalf("p90 of 1..100 = %v, %v; want about 90.4 (10 samples beyond)", v, err)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 100 samples has 1 beyond it and must be refused")
	}
	xs = append(xs, 0) // 101 samples: p90 rank 91, still 10 beyond
	if _, err := percentile(xs, 0.90); err != nil {
		t.Fatalf("p90 of 101 samples: %v", err)
	}
	if _, err := percentile(xs[:99], 0.90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestHarrellDavisSmoothsAClusterBoundary(t *testing.T) {
	// 49 or 50 samples at 1 and the rest at 2: the sample median jumps
	// from 2 to 1, the Harrell–Davis median moves by a few hundredths.
	cluster := func(ones int) []float64 {
		xs := make([]float64, 99)
		for i := range xs {
			xs[i] = 2
			if i < ones {
				xs[i] = 1
			}
		}
		return xs
	}
	lo, hi := hdQuantile(cluster(50), 0.5), hdQuantile(cluster(49), 0.5)
	if median(cluster(50)) != 1 || median(cluster(49)) != 2 {
		t.Fatal("test data no longer straddles the sample median")
	}
	if hi-lo > 0.1 || lo < 1.3 || hi > 1.7 {
		t.Fatalf("Harrell-Davis medians %v and %v, want both near 1.5", lo, hi)
	}
	if got := hdQuantile([]float64{3, 1, 2}, 0.5); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Harrell-Davis median of {1,2,3} = %v, want 2", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{ // statistics.quantiles(xs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestLPTMakespan(t *testing.T) {
	if got := lptMakespan([]float64{3, 3, 2, 2, 2}, 2); got != 7 {
		t.Fatalf("LPT makespan = %v, want 7", got)
	}
}

// fakeClock advances only when a request takes time or the generator
// sleeps.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	const interval = 10 * time.Millisecond
	// Request 1 stalls for 35 ms; the others take 2 ms.
	samples := openLoop(clk, t0, t0.Add(60*time.Millisecond), interval, func(i int) bool {
		d := 2 * time.Millisecond
		if i == 1 {
			d = 35 * time.Millisecond
		}
		clk.now = clk.now.Add(d)
		return false
	})
	if len(samples) != 6 {
		t.Fatalf("%d requests, want 6 (due at 0..50 ms)", len(samples))
	}
	wantLat := []time.Duration{2, 35, 27, 19, 11, 3} // ms
	wantLate := []time.Duration{0, 0, 25, 17, 9, 1}
	for i, s := range samples {
		if s.latency() != wantLat[i]*time.Millisecond || s.lateness() != wantLate[i]*time.Millisecond {
			t.Errorf("request %d: latency %v lateness %v, want %v and %v",
				i, s.latency(), s.lateness(), wantLat[i]*time.Millisecond, wantLate[i]*time.Millisecond)
		}
	}
}

func TestWindowedP90IgnoresOneBurst(t *testing.T) {
	t0 := time.Unix(1000, 0)
	run := func(burst bool) float64 {
		var samples []sample
		for w := 0; w < 5; w++ {
			for i := 0; i < 100; i++ {
				due := t0.Add(time.Duration(w)*time.Second + time.Duration(i)*10*time.Millisecond)
				lat := time.Duration(i%10+1) * time.Millisecond
				if burst && w == 2 {
					lat *= 50 // a burst of interference in one window
				}
				samples = append(samples, sample{due: due, sent: due, done: due.Add(lat)})
			}
		}
		return windowedP90(samples, time.Second)
	}
	calm, burst := run(false), run(true)
	if burst != calm || calm < 9 || calm > 10 {
		t.Fatalf("windowed p90 = %v ms with a burst, %v ms without; want equal, between 9 and 10", burst, calm)
	}
}

func TestFailureCounting(t *testing.T) {
	for _, tc := range []struct {
		status int
		err    error
		failed bool
	}{
		{http.StatusOK, nil, false},
		{http.StatusCreated, nil, false},
		{http.StatusTooManyRequests, nil, true},
		{http.StatusNotFound, nil, true},
		{http.StatusInternalServerError, nil, true},
		{0, errors.New("connection refused"), true},
	} {
		if got := failedResponse(tc.status, tc.err); got != tc.failed {
			t.Errorf("failedResponse(%d, %v) = %v, want %v", tc.status, tc.err, got, tc.failed)
		}
	}
	p := newPhase(1, time.Second, "")
	for _, f := range []bool{false, true, false} {
		p.op(f)
	}
	if p.attempted != 3 || p.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", p.attempted, p.failed)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: rootName, Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 5},
		{ID: 3, Parent: 2, Name: "b", Start: 2, End: 3}, // nested in a
		{ID: 4, Parent: 1, Name: "c", Start: 6, End: 9},
	}
	self := selfTimes(spans)
	want := map[string]float64{rootName: 3, "a": 3, "b": 1, "c": 3}
	for name, v := range want {
		if math.Abs(self[name]-v) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], v)
		}
	}
	// Overlapping siblings share the overlap; the rows still sum to the wall.
	spans = []span{
		{ID: 1, Name: rootName, Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "w", Start: 2, End: 6},
		{ID: 3, Parent: 1, Name: "w", Start: 4, End: 8},
	}
	self = selfTimes(spans)
	if math.Abs(self["w"]-6) > 1e-12 || math.Abs(self[rootName]-4) > 1e-12 {
		t.Fatalf("overlap: self = %v, want w 6 and root 4", self)
	}
}

func TestChecksRejectWrongOutput(t *testing.T) {
	const pinned = "abc"
	if err := checkPaper(map[int][]string{1: {pinned}, 2: {pinned, pinned}}, pinned); err != nil {
		t.Fatalf("matching outputs rejected: %v", err)
	}
	if err := checkPaper(map[int][]string{1: {pinned}, 2: {pinned, "abd"}}, pinned); err == nil {
		t.Error("paper-all accepted a campaign whose output differs")
	}

	want := []fleet.ChipStatus{{ID: "a", Step: 3, MaxShiftV: 0.01}, {ID: "b", Step: 3}}
	got := []fleet.ChipStatus{{ID: "b", Step: 3, Suspended: true}, {ID: "a", Step: 3, MaxShiftV: 0.01}}
	if err := checkListing(got, want); err != nil {
		t.Fatalf("listing differing only in residency rejected: %v", err)
	}
	got[1].MaxShiftV = 0.011
	if err := checkListing(got, want); err == nil {
		t.Error("fleet accepted a chip whose wearout differs")
	}
	if err := checkListing(got[:1], want); err == nil {
		t.Error("fleet accepted a listing with a chip missing")
	}
	if err := checkStepResponse([]byte(`{"chips":[{"id":"a","step":4},{"id":"b","step":3}]}`), 2, 4); err == nil {
		t.Error("fleet accepted a batch response with a chip left behind")
	}
	if err := checkStepResponse([]byte(`{"chips":[{"id":"a","step":4}]}`), 2, 4); err == nil {
		t.Error("fleet accepted a batch response missing a chip")
	}

	if err := checkDrain(drainStats{digest: "s", steals: 1}, "s"); err != nil {
		t.Fatalf("identical drain output rejected: %v", err)
	}
	if err := checkDrain(drainStats{digest: "t"}, "s"); err == nil {
		t.Error("dist-drain accepted output that differs from serial")
	}
	if err := checkDrain(drainStats{digest: "s", quarantined: 1}, "s"); err == nil {
		t.Error("dist-drain accepted a quarantined point")
	}
}

func TestLayerMapCompleteness(t *testing.T) {
	fams := map[string][]string{"x": {"e1", "e2"}, "y": {"e3"}}
	if _, err := checkLayerMap([]string{"e1", "e2", "e3"}, fams); err != nil {
		t.Fatalf("complete map rejected: %v", err)
	}
	if _, err := checkLayerMap([]string{"e1", "e2", "e3", "e4"}, fams); err == nil || !strings.Contains(err.Error(), "e4") {
		t.Errorf("unmapped experiment not reported: %v", err)
	}
	if _, err := checkLayerMap([]string{"e1", "e3"}, fams); err == nil || !strings.Contains(err.Error(), "e2") {
		t.Errorf("stale entry not reported: %v", err)
	}
	fams["y"] = append(fams["y"], "e1")
	if _, err := checkLayerMap([]string{"e1", "e2", "e3"}, fams); err == nil {
		t.Error("experiment under two families accepted")
	}
}

func TestCollectRequiresEveryEndToEndMetric(t *testing.T) {
	defs := []metricDef{{Name: "a_s", Unit: "s"}, {Name: "b_ms", Unit: "ms"}}
	if _, err := collect(defs, map[string]float64{"a_s": 1, "b_ms": 2}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(defs, map[string]float64{"a_s": 1, "b_ms": 0}, true); err == nil {
		t.Error("zero end-to-end metric accepted")
	}
	if _, err := collect(defs, map[string]float64{"a_s": 1, "b_ms": 2, "c": 3}, false); err == nil {
		t.Error("metric missing from BENCHMARK.json accepted")
	}
}

func TestCompareRefusesDifferentStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st stamp) string {
		data, err := json.Marshal(record{Stamp: st, Workload: "w"})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(recordPrefix+string(data)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := stamp{Go: "go1.24.0", GOMAXPROCS: 2, NProc: 2, CPU: "a", Bench: "b", Commit: "c1"}
	other := base
	other.CPU = "another machine"
	err := compare(io.Discard, []string{write("base", base), write("head", other)})
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("compare across machines: %v, want a refusal", err)
	}
}
