package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"falseshare/internal/sim/ksr"
)

// localRunner is an in-process CellRunner: it executes cells straight
// from an Enumeration, exactly like a fabric worker does but without
// crossing a process boundary — the cheapest way to prove runJobs'
// Runner path reassembles results, spans and errors faithfully.
type localRunner struct {
	enum *Enumeration
	down bool // refuse every cell (simulates an unreachable fleet)
}

func (r *localRunner) RunCells(ctx context.Context, section string, reqs []CellRequest) ([]CellResult, error) {
	out := make([]CellResult, len(reqs))
	for i, req := range reqs {
		if r.down {
			out[i] = CellResult{Key: req.Key, Err: errors.New("fleet unreachable")}
			continue
		}
		data, spans, err, ok := r.enum.Run(ctx, req.Key)
		if !ok {
			out[i] = CellResult{Key: req.Key, Err: fmt.Errorf("no cell %q", req.Key)}
			continue
		}
		out[i] = CellResult{Key: req.Key, Data: data, Spans: spans, Err: err}
	}
	return out, nil
}

func remoteTestGrid() (Config, MatrixOptions, SectionSet) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	mopt := MatrixOptions{Workloads: 2, Seed: 7, Procs: 2, Block: 32, ScaleMin: true}
	return cfg, mopt, SectionSet{Sections: []string{"matrix"}, Matrix: mopt}
}

// TestCollectDeterministic: two enumerations of the same spec produce
// the same keys in the same order — the property that lets a worker
// rebuild the coordinator's grid from the shipped spec alone.
func TestCollectDeterministic(t *testing.T) {
	cfg, _, set := remoteTestGrid()
	a, err := Collect(cfg.Spec().Config(), set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(cfg.Spec().Config(), set)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty enumeration")
	}
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("enumerations differ in size: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key %d differs: %q vs %q", i, ka[i], kb[i])
		}
	}
	for _, k := range ka {
		if !strings.HasPrefix(k, "matrix/") {
			t.Errorf("unexpected key %q", k)
		}
	}
}

// TestCollectSpecRoundTrip: the spec and section set survive JSON (the
// hello frame) without changing the grid.
func TestCollectSpecRoundTrip(t *testing.T) {
	cfg, _, set := remoteTestGrid()
	direct, err := Collect(cfg.Spec().Config(), set)
	if err != nil {
		t.Fatal(err)
	}

	sb, err := json.Marshal(cfg.Spec())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	var spec ConfigSpec
	var set2 SectionSet
	if err := json.Unmarshal(sb, &spec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tb, &set2); err != nil {
		t.Fatal(err)
	}
	wired, err := Collect(spec.Config(), set2)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := direct.Keys(), wired.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("grid changed across the wire: %d vs %d cells", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key %d changed across the wire: %q vs %q", i, ka[i], kb[i])
		}
	}
}

// TestCollectSectionOverlap: Table 3 re-enumerates Figure 4's sweep
// under the same keys; the enumeration dedups them (first add wins,
// sound because equal keys denote equal work).
func TestCollectSectionOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepCounts = []int{1, 2}
	machine := ksr.DefaultConfig()
	set4 := SectionSet{Sections: []string{"fig4"}, Machine: machine}
	set3 := SectionSet{Sections: []string{"table3"}, Machine: machine}
	both := SectionSet{Sections: []string{"fig4", "table3"}, Machine: machine}
	e4, err := Collect(cfg, set4)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Collect(cfg, set3)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Collect(cfg, both)
	if err != nil {
		t.Fatal(err)
	}
	if eb.Len() >= e4.Len()+e3.Len() {
		t.Errorf("no dedup across fig4+table3: %d cells from %d + %d", eb.Len(), e4.Len(), e3.Len())
	}
	if eb.Len() < e4.Len() || eb.Len() < e3.Len() {
		t.Errorf("union smaller than a member: %d vs %d/%d", eb.Len(), e4.Len(), e3.Len())
	}
}

func TestCollectUnknownSection(t *testing.T) {
	cfg, _, _ := remoteTestGrid()
	if _, err := Collect(cfg, SectionSet{Sections: []string{"fig99"}}); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestEnumerationUnknownKey(t *testing.T) {
	cfg, _, set := remoteTestGrid()
	enum, err := Collect(cfg.Spec().Config(), set)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := enum.Run(context.Background(), "matrix/no-such-cell"); ok {
		t.Fatal("unknown key executed")
	}
}

// TestRunnerManifestMatchesLocal: routing a driver through a
// CellRunner yields a manifest byte-identical to the plain local run —
// the byte-identity contract at the package boundary, without any
// process machinery.
func TestRunnerManifestMatchesLocal(t *testing.T) {
	cfg, mopt, set := remoteTestGrid()
	local := manifestBytes(t, "matrix", cfg, func() (any, error) { return Matrix(cfg, mopt) })

	enum, err := Collect(cfg.Spec().Config(), set)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Runner = &localRunner{enum: enum}
	remote := manifestBytes(t, "matrix", rcfg, func() (any, error) { return Matrix(rcfg, mopt) })
	if !bytes.Equal(local, remote) {
		d1, d2 := firstDiff(local, remote)
		t.Errorf("runner manifest differs from local:\n--- local ---\n%s\n--- runner ---\n%s", d1, d2)
	}
}

// TestRunnerJournalShortCircuit: cells already in the cell store (the
// resume checkpoint) never reach the runner — a resumed distributed
// run with every cell stored completes even when the whole fleet is
// unreachable. The first run's cells are committed on the worker
// side, by an enumeration collected with the store, as a fabric
// worker does.
func TestRunnerJournalShortCircuit(t *testing.T) {
	cfg, mopt, set := remoteTestGrid()
	dir := t.TempDir()
	wst, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := cfg.Spec().Config()
	wcfg.Store = wst
	enum, err := Collect(wcfg, set)
	if err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Runner = &localRunner{enum: enum}
	rcfg.Store = st
	want, err := Matrix(rcfg, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Hits != 0 || c.Misses != int64(enum.Len()) {
		t.Errorf("cold run: hits=%d misses=%d, want 0/%d", c.Hits, c.Misses, enum.Len())
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rcfg2 := cfg
	rcfg2.Runner = &localRunner{down: true}
	rcfg2.Store = st2
	got, err := Matrix(rcfg2, mopt)
	if err != nil {
		t.Fatalf("store-complete run touched the dead fleet: %v", err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Error("store-replayed results differ")
	}
}

// TestRunnerNilResultBackfill: a runner that returns (nil, err) — a
// whole-fleet breakdown — must surface a per-cell error for every
// requested cell, never a panic or silent zero results.
func TestRunnerNilResultBackfill(t *testing.T) {
	cfg, mopt, _ := remoteTestGrid()
	rcfg := cfg
	rcfg.Runner = brokenRunner{}
	_, err := Matrix(rcfg, mopt)
	if err == nil {
		t.Fatal("fleet breakdown produced no error")
	}
	if !strings.Contains(err.Error(), "all workers dead") && !strings.Contains(err.Error(), "failed") {
		t.Logf("breakdown error: %v", err)
	}
}

type brokenRunner struct{}

func (brokenRunner) RunCells(ctx context.Context, section string, reqs []CellRequest) ([]CellResult, error) {
	return nil, errors.New("fabric: all workers dead")
}

// TestFingerprintDeterminism pins the cache-key material: stable
// across calls, sensitive to every field, and section-prefixed so a
// cache directory is greppable by experiment.
func TestFingerprintDeterminism(t *testing.T) {
	a := fingerprint("fig3", "prog=maxflow", "procs=12")
	b := fingerprint("fig3", "prog=maxflow", "procs=12")
	if a != b {
		t.Errorf("fingerprint not stable: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, "fig3:") {
		t.Errorf("fingerprint %q not section-prefixed", a)
	}
	if c := fingerprint("fig3", "prog=maxflow", "procs=16"); c == a {
		t.Error("fingerprint insensitive to a field change")
	}
	if c := fingerprint("table2", "prog=maxflow", "procs=12"); c == a {
		t.Error("fingerprint insensitive to the section")
	}
	// Field-boundary safety: the separator keeps "ab"+"c" distinct
	// from "a"+"bc".
	if fingerprint("s", "ab", "c") == fingerprint("s", "a", "bc") {
		t.Error("fingerprint concatenates fields without separation")
	}
}

// TestEventsRoundTrip: MarkEvents/EventsSince/AdoptEvents carry
// degraded and diag records across (what would be) a process boundary.
func TestEventsRoundTrip(t *testing.T) {
	ResetDegraded()
	defer ResetDegraded()
	mark := MarkEvents()
	if ev := EventsSince(mark, "matrix/gen-test"); !ev.Empty() {
		t.Fatalf("fresh mark sees events: %+v", ev)
	}
	// What a worker does: record during the cell (AdoptEvents doubles
	// as the recording primitive here), capture the delta after. A
	// concurrently running cell's event stays out of the capture.
	AdoptEvents(CellEvents{Degraded: []DegradeEvent{{Key: "matrix/gen-test", Objects: []string{"obj"}, Details: []string{"d"}}}})
	AdoptEvents(CellEvents{Degraded: []DegradeEvent{{Key: "matrix/gen-other", Objects: []string{"x"}}}})
	ev := EventsSince(mark, "matrix/gen-test")
	if len(ev.Degraded) != 1 || ev.Degraded[0].Key != "matrix/gen-test" {
		t.Fatalf("EventsSince did not capture exactly the cell's degrade event: %+v", ev)
	}
	// What the coordinator does: adopt the shipped delta.
	AdoptEvents(ev)
	after := DegradedEvents()
	if len(after) != 3 {
		t.Fatalf("got %d recorded events, want 3 (two recorded + adopted copy)", len(after))
	}
	got := after[len(after)-1]
	if got.Key != "matrix/gen-test" || len(got.Objects) != 1 || got.Objects[0] != "obj" {
		t.Errorf("adopted event mangled: %+v", got)
	}
}
