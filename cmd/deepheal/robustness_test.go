package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/core"
	"deepheal/internal/engine"
	"deepheal/internal/faultinject"
)

// TestDoubleInterruptForcesExit drives the real signal path: the first
// SIGINT cancels the context (graceful drain), the second calls exit(130).
func TestDoubleInterruptForcesExit(t *testing.T) {
	exited := make(chan int, 1)
	ctx, stop := withSignalHandling(context.Background(), func(code int) { exited <- code })
	defer stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case code := <-exited:
		t.Fatalf("first interrupt force-exited with %d", code)
	case <-time.After(5 * time.Second):
		t.Fatal("first interrupt did not cancel the context")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != exitInterrupt {
			t.Fatalf("second interrupt exit code = %d, want %d", code, exitInterrupt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second interrupt did not force an exit")
	}
}

func TestStopReleasesSignalHandlerWithoutExiting(t *testing.T) {
	exited := make(chan int, 1)
	ctx, stop := withSignalHandling(context.Background(), func(code int) { exited <- code })
	stop()
	select {
	case <-ctx.Done():
	default:
		t.Fatal("stop did not cancel the context")
	}
	select {
	case code := <-exited:
		t.Fatalf("stop triggered exit(%d)", code)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestExitCodeMapping(t *testing.T) {
	if got := exitCode(nil); got != exitOK {
		t.Errorf("exitCode(nil) = %d", got)
	}
	if got := exitCode(errors.New("boom")); got != exitErr {
		t.Errorf("generic error exit code = %d, want %d", got, exitErr)
	}
	wrapped := &wrapQuarantine{}
	if got := exitCode(wrapped); got != exitQuarantine {
		t.Errorf("quarantine exit code = %d, want %d", got, exitQuarantine)
	}
}

type wrapQuarantine struct{}

func (*wrapQuarantine) Error() string { return "3 point(s) quarantined" }
func (*wrapQuarantine) Unwrap() error { return campaign.ErrQuarantined }

func TestBadFaultSpecRejected(t *testing.T) {
	if err := run(context.Background(), []string{"-faults", "no-such-site:p=0.5", "list"}); err == nil {
		t.Fatal("unknown fault site accepted")
	}
	if err := run(context.Background(), []string{"-faults", "point-error:p=nope", "list"}); err == nil {
		t.Fatal("malformed probability accepted")
	}
}

// TestChaosCampaignQuarantinesAndSurvivors runs a two-experiment campaign
// with one injected point error: the campaign must complete, report
// ErrQuarantined, enumerate the quarantined point in points.json, and emit
// byte-identical artifacts for the surviving experiment.
func TestChaosCampaignQuarantinesAndSurvivors(t *testing.T) {
	chaosOut := t.TempDir()
	resumeDir := t.TempDir()
	cleanOut := t.TempDir()

	err := run(context.Background(), []string{
		"-q", "-o", chaosOut, "-resume", resumeDir,
		"-faults", "point-error:occ=1", "table1", "fig4",
	})
	if err == nil {
		t.Fatal("chaos campaign reported success despite an injected point failure")
	}
	if !errors.Is(err, campaign.ErrQuarantined) {
		t.Fatalf("chaos campaign error = %v, want ErrQuarantined", err)
	}

	data, rerr := os.ReadFile(filepath.Join(resumeDir, "points.json"))
	if rerr != nil {
		t.Fatalf("points.json not written: %v", rerr)
	}
	var stats []struct {
		Task   string               `json:"task"`
		Err    string               `json:"err"`
		Points []campaign.PointStat `json:"points"`
	}
	if jerr := json.Unmarshal(data, &stats); jerr != nil {
		t.Fatal(jerr)
	}
	var quarantined []campaign.PointStat
	for _, ts := range stats {
		for _, s := range ts.Points {
			if s.Quarantined {
				quarantined = append(quarantined, s)
				if ts.Err == "" {
					t.Errorf("task %s has a quarantined point but no task-level err", ts.Task)
				}
			}
		}
	}
	if len(quarantined) != 1 {
		t.Fatalf("points.json enumerates %d quarantined points, want 1: %s", len(quarantined), data)
	}
	if q := quarantined[0]; q.Attempts < 1 || q.Err == "" {
		t.Errorf("quarantined entry missing attempts/err: %+v", q)
	}

	// Every experiment that did not own the quarantined point must have
	// produced output identical to a fault-free run.
	if err := run(context.Background(), []string{"-q", "-o", cleanOut, "table1", "fig4"}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	survivors := 0
	for _, id := range []string{"table1", "fig4"} {
		chaosPath := filepath.Join(chaosOut, id+".txt")
		chaosBytes, err := os.ReadFile(chaosPath)
		if errors.Is(err, os.ErrNotExist) {
			continue // this experiment failed; no artifact expected
		}
		if err != nil {
			t.Fatal(err)
		}
		cleanBytes, err := os.ReadFile(filepath.Join(cleanOut, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chaosBytes, cleanBytes) {
			t.Errorf("%s: surviving output differs from fault-free run", id)
		}
		survivors++
	}
	if survivors == 0 {
		t.Error("no experiment survived a single injected point error")
	}
}

// TestChaosCampaignRetrySucceeds: with a retry budget, a once-only injected
// error must not quarantine anything — the retry recomputes the point and
// the run exits cleanly.
func TestChaosCampaignRetrySucceeds(t *testing.T) {
	out := t.TempDir()
	clean := t.TempDir()
	err := run(context.Background(), []string{
		"-q", "-o", out, "-retries", "2",
		"-faults", "point-error:occ=1", "table1",
	})
	if err != nil {
		t.Fatalf("retry did not absorb a transient point error: %v", err)
	}
	if err := run(context.Background(), []string{"-q", "-o", clean, "table1"}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(out, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(clean, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("retried run output differs from fault-free run")
	}
}

// TestSimResumeRejectsTruncatedCheckpoint injects a mid-write truncation
// into the checkpoint save — as if power died half-way — and verifies the
// CLI resume fails loudly instead of silently restoring garbage. The save
// is driven directly because a run that reaches its horizon deletes its
// checkpoint; the truncated file must survive for the resume attempt.
func TestSimResumeRejectsTruncatedCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sim.ckpt")
	cfg := core.DefaultConfig()
	cfg.Steps = 25
	sim, err := core.NewSimulator(cfg, core.DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	full, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	inj, err := faultinject.New(1, map[faultinject.Site]faultinject.Schedule{
		faultinject.SiteCheckpointTruncate: {Occurrences: []uint64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	saveErr := saveCheckpoint(ckpt, sim)
	faultinject.Disable()
	if saveErr != nil {
		t.Fatal(saveErr)
	}
	info, err := os.Stat(ckpt)
	if err != nil {
		t.Fatalf("checkpoint was not written: %v", err)
	}
	if info.Size() == 0 || info.Size() >= int64(len(full)) {
		t.Fatalf("checkpoint is %d bytes, want a truncated fraction of %d", info.Size(), len(full))
	}

	err = run(context.Background(), []string{"sim", "-steps", "25", "-checkpoint", ckpt})
	if err == nil {
		t.Fatal("resume accepted a truncated checkpoint")
	}
	if !strings.Contains(err.Error(), "resume from") {
		t.Errorf("resume error %q does not identify the checkpoint", err)
	}
}

// TestSimResumeRejectsGobCheckpoint resumes from testdata/sim_gob_v2.ckpt, a
// `sim -rows 3 -cols 3 -steps 25` checkpoint taken at step 10 by the last
// build that wrote the gob container. The resume must fail with the
// dedicated error before anything runs, and leave the file where it was; a
// simulator that rejected it must still run exactly like a fresh one.
func TestSimResumeRejectsGobCheckpoint(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "sim_gob_v2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "sim.ckpt")
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"sim", "-rows", "3", "-cols", "3", "-steps", "25", "-checkpoint", ckpt})
	if !errors.Is(err, engine.ErrNotCompact) {
		t.Fatalf("resume from a gob checkpoint: err = %v, want engine.ErrNotCompact", err)
	}
	if !strings.Contains(err.Error(), "gob") || !strings.Contains(err.Error(), "resume from") {
		t.Errorf("resume error %q does not name the checkpoint and the retired gob form", err)
	}
	if after, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(after, old) {
		t.Errorf("rejected checkpoint was modified or removed (err %v)", err)
	}

	cfg := core.ConfigForGrid(3, 3)
	cfg.Steps = 25
	sim, err := core.NewSimulator(cfg, core.DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Restore(old); !errors.Is(err, engine.ErrNotCompact) {
		t.Fatalf("core restore of a gob checkpoint: err = %v, want engine.ErrNotCompact", err)
	}
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewSimulator(cfg, core.DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.GuardbandFrac != want.GuardbandFrac || got.FinalShiftV != want.FinalShiftV || len(got.Series) != len(want.Series) {
		t.Errorf("simulator that rejected the checkpoint diverged from a fresh run: %+v vs %+v", got, want)
	}
}
