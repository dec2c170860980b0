package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"sort"
	"testing"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
)

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeFig3Config is a small Figure 3 grid: the six programs, both
// versions, one block size — 12 cells.
func storeFig3Config() Config {
	cfg := determinismConfig(4)
	cfg.Fig3Blocks = []int64{128}
	return cfg
}

// TestResumeRecomputesChangedKnobs is the stale-resume regression: a
// resumed run whose -scale, -step-budget, -verify or -diag differs
// from the run that filled the store must recompute every cell the
// change affects — all of them here — and print exactly what a fresh
// run prints; an unchanged re-run must replay every cell.
func TestResumeRecomputesChangedKnobs(t *testing.T) {
	defer ResetDegraded()
	defer ResetDiag()
	base := storeFig3Config()
	dir := t.TempDir()
	fill := base
	fill.Store = openTestStore(t, dir)
	cells, err := Figure3(fill)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(cells))

	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"scale", func(c *Config) { c.Scale = 2 }},
		{"step-budget", func(c *Config) { c.StepBudget = 2_000_000_000 }},
		{"verify", func(c *Config) { c.Verify = true }},
		{"diag", func(c *Config) { c.Diag = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			fresh := manifestBytes(t, "fig3", cfg, func() (any, error) { return Figure3(cfg) })
			rcfg := cfg
			rcfg.Store = openTestStore(t, dir)
			resumed := manifestBytes(t, "fig3", rcfg, func() (any, error) { return Figure3(rcfg) })
			if c := rcfg.Store.Counters(); c.Misses != n || c.Hits != 0 {
				t.Errorf("changed %s: hits=%d misses=%d, want 0/%d", tc.name, c.Hits, c.Misses, n)
			}
			if !bytes.Equal(fresh, resumed) {
				d1, d2 := firstDiff(fresh, resumed)
				t.Errorf("changed %s: resumed manifest differs from fresh:\n--- fresh ---\n%s\n--- resumed ---\n%s", tc.name, d1, d2)
			}
		})
	}

	again := base
	again.Store = openTestStore(t, dir)
	if _, err := Figure3(again); err != nil {
		t.Fatal(err)
	}
	if c := again.Store.Counters(); c.Hits != n || c.Misses != 0 {
		t.Errorf("unchanged re-run: hits=%d misses=%d, want %d/0", c.Hits, c.Misses, n)
	}
}

// sortedEvents snapshots the recorded -verify and -diag events in key
// order (a -j 4 run records them in completion order).
func sortedEvents(t *testing.T) []byte {
	t.Helper()
	ev := CellEvents{Degraded: DegradedEvents(), Diag: DiagCells()}
	sort.Slice(ev.Degraded, func(i, j int) bool { return ev.Degraded[i].Key < ev.Degraded[j].Key })
	sort.Slice(ev.Diag, func(i, j int) bool { return ev.Diag[i].Key < ev.Diag[j].Key })
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreReplaysEvents: a replayed cell re-records the degrade
// events and attribution cells its original run recorded under its
// key — with -j 4, so concurrent cells' events must not mix — and the
// rendered diagnosis is the one a fresh run prints.
func TestStoreReplaysEvents(t *testing.T) {
	s, err := faultinject.Parse("transform.corrupt:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	t.Cleanup(faultinject.Disable)
	t.Cleanup(ResetDegraded)
	t.Cleanup(ResetDiag)

	cfg := storeFig3Config()
	cfg.Verify = true
	cfg.Diag = true
	cfg.Store = openTestStore(t, t.TempDir())
	ResetDegraded()
	ResetDiag()
	if _, err := Figure3(cfg); err != nil {
		t.Fatal(err)
	}
	stored := cfg.Store.Counters().Misses
	want := sortedEvents(t)
	wantDiag := RenderDiag(DiagCells())
	if len(DegradedEvents()) == 0 || len(DiagCells()) == 0 {
		t.Fatalf("fresh run recorded %d degrade events and %d diag cells; the test needs both", len(DegradedEvents()), len(DiagCells()))
	}

	ResetDegraded()
	ResetDiag()
	if _, err := Figure3(cfg); err != nil {
		t.Fatal(err)
	}
	if c := cfg.Store.Counters(); c.Hits != stored {
		t.Errorf("replay: hits=%d, want %d (every cell the first run stored)", c.Hits, stored)
	}
	if got := sortedEvents(t); !bytes.Equal(want, got) {
		t.Errorf("replayed events differ from the recorded ones:\n want %s\n  got %s", want, got)
	}
	if got := RenderDiag(DiagCells()); got != wantDiag {
		t.Errorf("replayed diagnosis differs:\n--- fresh ---\n%s\n--- replayed ---\n%s", wantDiag, got)
	}
}

// TestStoreStaleEntryIsMiss: an entry that no longer decodes into the
// job's result type is a miss — the job runs and its result replaces
// the entry — and a failed job is never stored.
func TestStoreStaleEntryIsMiss(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	const fp = "test:cell"
	word := []pool.Job[string]{{Key: "k", Fingerprint: fp, Run: func(context.Context) (string, error) { return "word", nil }}}
	if _, err := runJobs(Config{Workers: 1, Store: st}, "t", word); err != nil {
		t.Fatal(err)
	}

	runs := 0
	num := func(err error) []pool.Job[int64] {
		return []pool.Job[int64]{{Key: "k", Fingerprint: fp, Run: func(context.Context) (int64, error) {
			runs++
			return 42, err
		}}}
	}
	if _, err := runJobs(Config{Workers: 1, Store: st}, "t", num(errors.New("boom"))); err == nil {
		t.Fatal("failing job reported success")
	}
	got, err := runJobs(Config{Workers: 1, Store: st}, "t", num(nil))
	if err != nil || got[0] != 42 {
		t.Fatalf("stale entry: got %v, %v; want 42", got, err)
	}
	got, err = runJobs(Config{Workers: 1, Store: st}, "t", num(nil))
	if err != nil || got[0] != 42 || runs != 2 {
		t.Errorf("after recompute: got %v, %v after %d runs; want 42 replayed after 2 runs", got, err, runs)
	}
}

// TestStoreKillMidCommit is the crash contract at the experiment
// level: a run killed inside the store's commit window (an exit fault
// at the rename point, like kill -9 between write and rename) loses
// at most that one cell. The child — this test binary re-executed —
// runs four cells serially and dies while committing the third.
func TestStoreKillMidCommit(t *testing.T) {
	const nJobs = 4
	if dir := os.Getenv("EXPERIMENTS_KILL_STORE_DIR"); dir != "" {
		set, err := faultinject.Parse("cell.store=rename/:exit:after=2:count=1")
		if err != nil {
			os.Exit(9)
		}
		faultinject.Enable(set)
		st, err := OpenStore(dir)
		if err != nil {
			os.Exit(9)
		}
		runJobs(Config{Workers: 1, Store: st}, "chaos", chaosJobs([]int64{64}, nJobs, 1))
		os.Exit(9) // unreachable if the fault fired
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestStoreKillMidCommit$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_KILL_STORE_DIR="+dir)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !(errors.As(err, &ee) && ee.ExitCode() == 3) { // faultinject's default exit code
		t.Fatalf("child exit: %v (want exit code 3)\n%s", err, out)
	}

	st := openTestStore(t, dir)
	if c := st.Counters(); c.Entries != 2 || c.CorruptDropped != 1 {
		t.Errorf("after the crash: entries=%d corrupt=%d, want 2 cells kept and 1 torn write reaped", c.Entries, c.CorruptDropped)
	}
	resumed, err := runJobs(Config{Workers: 1, Store: st}, "chaos", chaosJobs([]int64{64}, nJobs, 1))
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Hits != 2 || c.Misses != nJobs-2 {
		t.Errorf("resume: hits=%d misses=%d, want 2/%d", c.Hits, c.Misses, nJobs-2)
	}
	clean, err := runJobs(Config{Workers: 1}, "chaos", chaosJobs([]int64{64}, nJobs, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if resumed[i] != clean[i] {
			t.Errorf("cell%d: resumed %d != clean %d", i, resumed[i], clean[i])
		}
	}
}
