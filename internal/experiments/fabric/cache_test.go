package fabric

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"falseshare/internal/experiments"
)

// The fabric's cell cache is the experiments cell store in the run
// directory: workers commit every cell they compute there before
// reporting it. These tests pin what a worker commit carries and how
// a later run treats it.

// fillStore runs the test grid through two workers committing into
// dir and returns the distributed run's normalized manifest.
func fillStore(t *testing.T, cfg experiments.Config, mopt experiments.MatrixOptions, set experiments.SectionSet, dir string) []byte {
	t.Helper()
	coord := startCoordinator(t, Options{Workers: 2, Spec: cfg.Spec(), Set: set, RunDir: dir})
	defer coord.Close()
	fcfg := cfg
	fcfg.Runner = coord
	fcfg.Store = openStore(t, dir)
	return normManifest(t, "matrix", fcfg, func() (any, error) { return experiments.Matrix(fcfg, mopt) })
}

// sortedDiag returns the recorded attribution cells in key order.
func sortedDiag(t *testing.T) []byte {
	t.Helper()
	cells := experiments.DiagCells()
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key < cells[j].Key })
	return mustJSON(t, cells)
}

// entryFiles lists the store's entry files.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(p) == ".json" {
			files = append(files, p)
		}
		return nil
	})
	return files
}

// TestCacheRoundTrip: a cell a worker committed carries its result,
// its span subtree and its -diag events, so an in-process replay of
// the whole grid reproduces the fresh run's manifest byte for byte and
// re-records every attribution cell.
func TestCacheRoundTrip(t *testing.T) {
	cfg, mopt, set := testGrid()
	cfg.Diag = true
	keys := gridKeys(t, cfg, set)

	experiments.ResetDiag()
	defer experiments.ResetDiag()
	local := normManifest(t, "matrix", cfg, func() (any, error) { return experiments.Matrix(cfg, mopt) })
	wantDiag := sortedDiag(t)

	dir := t.TempDir()
	experiments.ResetDiag()
	dist := fillStore(t, cfg, mopt, set, dir)
	if !bytes.Equal(local, dist) {
		t.Error("distributed manifest differs from local")
	}

	experiments.ResetDiag()
	rcfg := cfg
	rcfg.Store = openStore(t, dir)
	replay := normManifest(t, "matrix", rcfg, func() (any, error) { return experiments.Matrix(rcfg, mopt) })
	if c := rcfg.Store.Counters(); c.Hits != int64(len(keys)) || c.Misses != 0 {
		t.Errorf("replay: hits=%d misses=%d, want %d/0", c.Hits, c.Misses, len(keys))
	}
	if !bytes.Equal(local, replay) {
		d1, d2 := firstDiff(local, replay)
		t.Errorf("replayed manifest differs from fresh:\n--- fresh ---\n%s\n--- replay ---\n%s", d1, d2)
	}
	if got := sortedDiag(t); !bytes.Equal(wantDiag, got) {
		t.Error("replayed cells did not re-record their attribution cells")
	}
}

// TestCacheSchemaBumpForcesRecomputation: the code identity is part of
// every entry's address, so a run under a different identity (a
// rebuilt executable) recomputes every cell — and stores its own
// generation next to the old one instead of serving it.
func TestCacheSchemaBumpForcesRecomputation(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	dir := t.TempDir()
	fillStore(t, cfg, mopt, set, dir)

	bumped := openStore(t, dir)
	bumped.Schema += "-rebuilt"
	rcfg := cfg
	rcfg.Store = bumped
	if _, err := experiments.Matrix(rcfg, mopt); err != nil {
		t.Fatal(err)
	}
	if c := bumped.Counters(); c.Hits != 0 || c.Misses != int64(len(keys)) {
		t.Errorf("rebuilt-code run: hits=%d misses=%d, want 0/%d", c.Hits, c.Misses, len(keys))
	}
	if n := len(entryFiles(t, dir)); n != 2*len(keys) {
		t.Errorf("store holds %d entries, want %d (both generations)", n, 2*len(keys))
	}
}

// TestCacheCorruptEntryIsMiss pins the failure posture: a torn entry
// is dropped when the store opens, counted, and costs exactly one
// recomputation — never an error, never a wrong cell.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	want, err := experiments.Matrix(cfg, mopt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fillStore(t, cfg, mopt, set, dir)
	files := entryFiles(t, dir)
	if len(files) != len(keys) {
		t.Fatalf("store holds %d entries, want %d", len(files), len(keys))
	}
	if err := os.WriteFile(files[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Store = openStore(t, dir)
	got, err := experiments.Matrix(rcfg, mopt)
	if err != nil {
		t.Fatal(err)
	}
	c := rcfg.Store.Counters()
	if c.CorruptDropped != 1 || c.Misses != 1 || c.Hits != int64(len(keys)-1) {
		t.Errorf("after one torn entry: corrupt=%d misses=%d hits=%d, want 1/1/%d", c.CorruptDropped, c.Misses, c.Hits, len(keys)-1)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("results with a torn entry differ from a fresh run")
	}
}

// TestCacheNilAndEmptyFingerprint: cells without a fingerprint
// (compilecost measures wall time) never enter the store, even when
// workers run them with a store open; and a worker given no run
// directory opens no store at all.
func TestCacheNilAndEmptyFingerprint(t *testing.T) {
	cfg := experiments.DefaultConfig()
	set := experiments.SectionSet{Sections: []string{"compilecost"}, CompileProcs: 2, CompileReps: 1}
	for _, withStore := range []bool{true, false} {
		dir := filepath.Join(t.TempDir(), "store")
		opt := Options{Workers: 2, Spec: cfg.Spec(), Set: set}
		if withStore {
			opt.RunDir = dir
		}
		coord := startCoordinator(t, opt)
		fcfg := cfg
		fcfg.Runner = coord
		if withStore {
			fcfg.Store = openStore(t, dir)
		}
		if _, err := experiments.CompileCost(fcfg, 2, 1); err != nil {
			t.Fatal(err)
		}
		coord.Close()
		if n := len(entryFiles(t, dir)); n != 0 {
			t.Errorf("store=%v: %d compilecost entries stored, want 0", withStore, n)
		}
		if _, err := os.Stat(dir); !withStore && !os.IsNotExist(err) {
			t.Errorf("worker without a run directory created a store (%v)", err)
		}
	}
}
