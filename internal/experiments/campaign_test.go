package experiments

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"deepheal/internal/campaign"
)

// pinnedPaperDigest is the digest of every experiment's output, in
// registry order, hashed as outputDigest does. It is the same value the
// benchmark's paper-all workload checks each campaign against.
const pinnedPaperDigest = "9f8b098ca2e443e2"

// outputDigestsFile holds one "<id> <sha256>" line per experiment, each the
// hash of that experiment's ID, Title and Format. Regenerate it only for a
// change that is meant to alter results:
//
//	go test ./internal/experiments -run TestCampaignParallelMatchesSerial -update-digests
const outputDigestsFile = "testdata/output_digests.txt"

var updateDigests = flag.Bool("update-digests", false, "rewrite "+outputDigestsFile+" from this run")

// resultDigest hashes one experiment's output the way outputDigest does.
func resultDigest(r Result) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n", r.ID(), r.Title(), r.Format())
	return h.Sum(nil)
}

// outputDigest hashes every outcome's ID, Title and Format, in order, and
// keeps the first 16 hex digits.
func outputDigest(outs []campaign.Outcome) string {
	h := sha256.New()
	for _, o := range outs {
		r := o.Value.(Result)
		fmt.Fprintf(h, "%s\n%s\n%s\n", r.ID(), r.Title(), r.Format())
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestCampaignParallelMatchesSerial is the determinism invariant: for every
// registered experiment, the output assembled by a parallel campaign is
// byte-identical to a serial one. The serial output is also pinned: each
// experiment's digest must match outputDigestsFile, so a numeric drift
// names the experiment, and the whole set must match pinnedPaperDigest.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	ctx := context.Background()
	run := func(workers int) []campaign.Outcome {
		tasks, err := Plans()
		if err != nil {
			t.Fatal(err)
		}
		outcomes, err := campaign.Run(ctx, tasks, campaign.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outcomes
	}

	serialOuts := run(1)
	serial := make(map[string]string, len(serialOuts))
	for _, o := range serialOuts {
		serial[o.Task] = o.Value.(Result).Format()
	}
	for _, o := range run(8) {
		if serial[o.Task] != o.Value.(Result).Format() {
			t.Errorf("%s: parallel output differs from serial", o.Task)
		}
	}

	var lines strings.Builder
	got := make(map[string]string, len(serialOuts))
	for _, o := range serialOuts {
		d := fmt.Sprintf("%x", resultDigest(o.Value.(Result)))
		got[o.Task] = d
		fmt.Fprintf(&lines, "%s %s\n", o.Task, d)
	}
	if *updateDigests {
		if err := os.WriteFile(outputDigestsFile, []byte(lines.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(outputDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		id, d, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", outputDigestsFile, line)
		}
		want[id] = d
	}
	for _, id := range IDs() {
		switch w, ok := want[id]; {
		case !ok:
			t.Errorf("%s: no pinned digest in %s", id, outputDigestsFile)
		case got[id] != w:
			t.Errorf("%s: output digest %s, pinned %s", id, got[id], w)
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: pinned in %s but not registered", id, outputDigestsFile)
		}
	}
	if d := outputDigest(serialOuts); d != pinnedPaperDigest {
		t.Errorf("paper digest %s, pinned %s", d, pinnedPaperDigest)
	}
}

// TestCampaignMemoisesAcrossExperiments verifies the cross-experiment
// dedup: the four Table I recovery conditions recur inside the
// ablation-bti-cond grid and must be computed only once.
func TestCampaignMemoisesAcrossExperiments(t *testing.T) {
	tasks, err := Plans("table1", "ablation-bti-cond")
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := campaign.Run(context.Background(), tasks, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	memo := 0
	for _, o := range outcomes {
		for _, p := range o.Points {
			if p.Source == "memo" {
				memo++
			}
		}
	}
	if memo != 4 {
		t.Errorf("memo hits = %d, want 4 (the Table I conditions inside the grid)", memo)
	}
}

// TestCampaignKillAndResume cancels a journal-backed campaign partway and
// verifies the resumed run restores every already-completed point from the
// journal and still produces the exact serial output.
func TestCampaignKillAndResume(t *testing.T) {
	ids := []string{"table1", "fig4", "variation"}
	dir := t.TempDir()
	ctx := context.Background()

	// Reference: plain serial run, no journal.
	want := map[string]string{}
	for _, id := range ids {
		res, err := Run(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = res.Format()
	}

	// First attempt: cancel as soon as the first experiment is delivered —
	// the simulated kill.
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := Plans(ids...)
	if err != nil {
		t.Fatal(err)
	}
	killCtx, cancel := context.WithCancel(ctx)
	_, err = campaign.Run(killCtx, tasks, campaign.Options{
		Workers: 1,
		Journal: j,
		OnTask:  func(campaign.Outcome) { cancel() },
	})
	cancel()
	j.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("kill run: err = %v, want context.Canceled", err)
	}

	// Resume: the journal must hold at least the first experiment's points,
	// every one of which is restored instead of re-run.
	j2, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Restorable() < 4 {
		t.Fatalf("journal holds %d points after kill, want at least table1's 4", j2.Restorable())
	}
	tasks2, err := Plans(ids...)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := campaign.Run(ctx, tasks2, campaign.Options{Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, o := range outcomes {
		if got := o.Value.(Result).Format(); got != want[o.Task] {
			t.Errorf("%s: resumed output differs from fresh serial run", o.Task)
		}
		for _, p := range o.Points {
			if p.Source == "journal" {
				restored++
			}
		}
	}
	if restored < 4 {
		t.Errorf("resume restored %d points, want at least table1's 4", restored)
	}
	if outcomes[0].Points[0].Source != "journal" {
		t.Errorf("first completed point re-ran on resume (source %q)", outcomes[0].Points[0].Source)
	}
}

// TestSimHashSeparatesInputs guards the hashing layer the memoisation and
// journal depend on: distinct configs, workloads and policies must never
// collide, and identical declarations must match.
func TestSimHashSeparatesInputs(t *testing.T) {
	a := PlanFig12()
	b := PlanFig12()
	for i := range a.Points {
		if a.Points[i].Hash == "" {
			t.Fatalf("point %s has no hash", a.Points[i].Key)
		}
		if a.Points[i].Hash != b.Points[i].Hash {
			t.Errorf("point %s: hash not reproducible", a.Points[i].Key)
		}
	}
	seen := map[string]string{}
	tasks, err := Plans()
	if err != nil {
		t.Fatal(err)
	}
	// Across the whole registry, equal hashes must only occur for the
	// intentionally shared protocols (same constructor, same inputs).
	for _, task := range tasks {
		for _, p := range task.Points {
			if p.Hash == "" {
				t.Errorf("%s: missing hash", p.Key)
			}
			seen[p.Key] = p.Hash
		}
	}
	if seen["fig12/no-recovery"] == seen["fig12/passive"] {
		t.Error("different policies hashed equal")
	}
	if seen["ablation-schedule/baseline"] == seen["fig12/no-recovery"] {
		t.Error("different configs (Steps 900 vs 2000) hashed equal")
	}
	if seen["table1/no1"] != seen["ablation-bti-cond/+0.0V-20C"] {
		t.Error("identical recovery conditions must share a hash (memoisation broken)")
	}
	if seen["fig7/baseline-nucleation"] != seen["fig5/nucleation"] {
		t.Error("shared DC nucleation baseline must hash equal across experiments")
	}
	if seen["fig7/baseline-ttf"] != seen["ablation-em-freq/dc"] {
		t.Error("shared DC TTF baseline must hash equal across experiments")
	}
}
