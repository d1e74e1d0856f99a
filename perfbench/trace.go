package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Parent is the ID of the span
// that caused it (0 for the root). Start and End are seconds since the
// tracer was created.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return id
}

// open starts a span whose end is filled in by the returned function; the
// ID is usable as a parent before the span closes.
func (t *tracer) open(name string, parent int) (id int, closeSpan func()) {
	if t == nil {
		return 0, func() {}
	}
	now := time.Now()
	id = t.record(name, parent, now, now)
	return id, func() {
		end := time.Since(t.t0).Seconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes attributes every instant covered by the spans to the innermost
// spans running at that instant, shared equally when several run at once,
// and sums the result by span name. A span's self time is therefore its
// duration minus the part of it that its children cover; when siblings
// overlap (two campaign workers, a stepper and a querier) each gets half of
// the overlap. The rows always add up to the covered wall time, which is
// what lets the trace table reconcile exactly.
func selfTimes(spans []span) map[string]float64 {
	type event struct {
		at    float64
		id    int
		start bool
	}
	events := make([]event, 0, 2*len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		byID[s.ID] = s
		events = append(events, event{s.Start, s.ID, true}, event{s.End, s.ID, false})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	out := make(map[string]float64)
	active := make(map[int]bool)
	hasActiveChild := make(map[int]bool)
	for i, ev := range events {
		if ev.start {
			active[ev.id] = true
		} else {
			delete(active, ev.id)
		}
		if i+1 == len(events) {
			break
		}
		dt := events[i+1].at - ev.at
		if dt <= 0 || len(active) == 0 {
			continue
		}
		clear(hasActiveChild)
		for id := range active {
			hasActiveChild[byID[id].Parent] = true
		}
		var leaves []int
		for id := range active {
			if !hasActiveChild[id] {
				leaves = append(leaves, id)
			}
		}
		share := dt / float64(len(leaves))
		for _, id := range leaves {
			out[byID[id].Name] += share
		}
	}
	return out
}

// rootName names the span that covers a whole workload run; its self time
// is the benchmark's own code between the calls it times, reported as
// other_s.
const rootName = "run"

// writeTable prints the reconciled per-layer table: each layer's self time
// and share of the run's wall, then other_s, then the check that the rows
// sum to the wall.
func writeTable(w io.Writer, workload string, spans []span, self map[string]float64) {
	var wall float64
	counts := make(map[string]int)
	for _, s := range spans {
		counts[s.Name]++
		if s.Name == rootName && s.Parent == 0 {
			wall = s.End - s.Start
		}
	}
	names := make([]string, 0, len(self))
	for name := range self {
		if name != rootName {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "per-layer self time, %s (traced wall %.3f s)\n", workload, wall)
	fmt.Fprintf(w, "  %-22s %10s %7s %7s\n", "layer", "self_s", "share", "spans")
	var total float64
	row := func(name string, v float64, n int) {
		total += v
		share := 0.0
		if wall > 0 {
			share = 100 * v / wall
		}
		fmt.Fprintf(w, "  %-22s %10.4f %6.1f%% %7d\n", name, v, share, n)
	}
	for _, name := range names {
		row(name, self[name], counts[name])
	}
	row("other_s", self[rootName], counts[rootName])
	fmt.Fprintf(w, "  %-22s %10.4f (wall %.4f)\n", "sum", total, wall)
}

// writeSpans saves the spans as JSON, one run per file.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfMetricName maps a span name onto its per-layer metric name.
func selfMetricName(spanName string) string {
	return "self." + strings.ReplaceAll(spanName, "/", ".") + "_s"
}
