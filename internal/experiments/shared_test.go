package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/workload"
)

// countVMRuns counts real VM executions while fn runs: a zero-length
// delay fault at vm.run fires once per Machine.Run and does nothing
// else.
func countVMRuns(t *testing.T, fn func()) int64 {
	t.Helper()
	s, err := faultinject.Parse("vm.run:delay=0s:count=1000000000")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	defer faultinject.Disable()
	fn()
	return s.Rules[0].Fires()
}

// poolSpan runs fn under a fresh recorder and returns the snapshot of
// its pool span for the named driver.
func poolSpan(t *testing.T, name string, fn func() error) *obs.Span {
	t.Helper()
	rep, err := RunManifest("fsexp", name, nil, func() (any, error) { return nil, fn() })
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Spans {
		if s.Name == "pool:"+name {
			return s
		}
	}
	t.Fatalf("no pool:%s span", name)
	return nil
}

// TestSharedTable2MatchesIndependent: with shared executions, every
// Table 2 cell at blocks {8, 128} — at -j 1 and -j 4 — has exactly the
// false-sharing count an independent MeasureBlocksCtx of that cell
// gives, and the pool span's shared counter is the number of cells
// minus the number of distinct executions.
func TestSharedTable2MatchesIndependent(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.Table2Blocks = []int64{8, 128}
	variants := onlyConfigs()
	_, keys, _ := table2Jobs(base)

	want := make([]int64, len(keys))
	distinct := map[execKey]bool{}
	for i, k := range keys {
		b := workload.Get(k.prog)
		procs := base.Fig3Procs
		if b.Name == "topopt" {
			procs = base.Fig3ProcsTopopt
		}
		ver, heur := VersionC, variants[k.variant]
		if k.variant == "N" {
			ver = VersionN
		}
		prog, err := ProgramCtx(ctx, b, ver, procs, base.Scale, k.block, heur)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := MeasureBlocksCtx(ctx, prog, []int64{k.block}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = stats[0].FalseShare
		bc, err := compileBytecode(prog)
		if err != nil {
			t.Fatal(err)
		}
		distinct[newExecKey(bc, 0, cache.DefaultConfig(procs, k.block))] = true
	}
	if len(distinct) >= len(keys) {
		t.Fatalf("%d distinct executions for %d cells: nothing to share", len(distinct), len(keys))
	}

	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		_, _, jobs := table2Jobs(cfg)
		var got []int64
		sp := poolSpan(t, "table2", func() (err error) {
			got, err = runJobs(cfg, "table2", jobs)
			return err
		})
		for i, k := range keys {
			if got[i] != want[i] {
				t.Errorf("-j %d: %s b%d %s: FalseShare %d, independent run %d", workers, k.prog, k.block, k.variant, got[i], want[i])
			}
		}
		if n := sp.Counter("shared"); n != int64(len(keys)-len(distinct)) {
			t.Errorf("-j %d: shared = %d, want %d cells - %d distinct", workers, n, len(keys), len(distinct))
		}
	}
}

// TestSharedExecutionsOncePerCall: a Table 2 call at block 8 runs
// exactly one VM execution per distinct program (25 for its 36
// cells), and a second call runs them all again — the memo does not
// outlive the call.
func TestSharedExecutionsOncePerCall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Table2Blocks = []int64{8}
	var first []Table2Row
	for call := 0; call < 2; call++ {
		var rows []Table2Row
		var sp *obs.Span
		runs := countVMRuns(t, func() {
			sp = poolSpan(t, "table2", func() (err error) {
				rows, err = Table2(cfg)
				return err
			})
		})
		if runs != 25 {
			t.Errorf("call %d: %d VM executions, want 25", call, runs)
		}
		if j, s := sp.Counter("jobs"), sp.Counter("shared"); j != 36 || s != 11 {
			t.Errorf("call %d: jobs=%d shared=%d, want 36 and 11", call, j, s)
		}
		if call == 0 {
			first = rows
		} else if RenderTable2(rows) != RenderTable2(first) {
			t.Errorf("second call's rows differ:\n%s\n%s", RenderTable2(first), RenderTable2(rows))
		}
	}
}

// TestSharedSkipsDiagCells: attributed cells never share, so every
// -diag cell of Table 2 records its own measure-attr span.
func TestSharedSkipsDiagCells(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Table2Blocks = []int64{8}
	cfg.Diag = true
	ResetDiag()
	defer ResetDiag()
	sp := poolSpan(t, "table2", func() error { _, err := Table2(cfg); return err })
	for _, job := range sp.Children {
		diag := strings.HasSuffix(job.Name, "/N") || strings.HasSuffix(job.Name, "/all")
		if got := job.Find("measure-attr") != nil; got != diag {
			t.Errorf("%s: measure-attr span present = %v, want %v", job.Name, got, diag)
		}
	}
	if n := len(DiagCells()); n != 12 {
		t.Errorf("%d diag cells recorded, want 12", n)
	}
}

// TestSharedFailureNotReused: cells whose shared execution exhausts
// its step budget each fail on their own — a failure is never handed
// to another cell — at any worker count.
func TestSharedFailureNotReused(t *testing.T) {
	const cells = 4
	for _, workers := range []int{1, 4} {
		cfg := Config{Workers: workers, StepBudget: 500}
		jobs := make([]pool.Job[int64], cells)
		for i := range jobs {
			jobs[i] = pool.Job[int64]{
				Key: "shared/cell" + string(rune('0'+i)),
				Run: func(ctx context.Context) (int64, error) {
					prog, err := core.CompileCtx(ctx, chaosSource, core.Options{Nprocs: 4, BlockSize: 64})
					if err != nil {
						return 0, err
					}
					st, err := cfg.measureCell(ctx, "", "chaos", VersionN, 4, 64, prog, false)
					if err != nil {
						return 0, err
					}
					return st.Refs, nil
				},
			}
		}
		var err error
		var sp *obs.Span
		runs := countVMRuns(t, func() {
			sp = poolSpan(t, "shared", func() error {
				_, err = runJobs(cfg, "shared", jobs)
				return nil
			})
		})
		if f := pool.Failures(err); len(f) != cells {
			t.Fatalf("-j %d: %d failures (%v), want %d", workers, len(f), err, cells)
		}
		for _, f := range pool.Failures(err) {
			if !strings.Contains(f.Err.Error(), "step budget") {
				t.Errorf("-j %d: %s: %v, want a step-budget failure", workers, f.Key, f.Err)
			}
		}
		if runs != cells {
			t.Errorf("-j %d: %d VM executions, want one per cell (%d)", workers, runs, cells)
		}
		if n := sp.Counter("shared"); n != 0 {
			t.Errorf("-j %d: shared = %d, want 0", workers, n)
		}
	}
}

// TestSharedMemo drives the memo directly: concurrent cells with one
// key run once and get equal but separate results; a waiter whose
// owner fails or is cancelled runs on its own; a waiter honours its
// own cancellation.
func TestSharedMemo(t *testing.T) {
	key := execKey{1}
	stats := func(refs int64) (*cache.Stats, *obs.Span, error) {
		return &cache.Stats{Refs: refs, ProcRefs: []int64{refs}}, nil, nil
	}

	t.Run("once", func(t *testing.T) {
		x := executionsFrom(withExecutions(context.Background()))
		var mu sync.Mutex
		runs := 0
		release := make(chan struct{})
		results := make([]*cache.Stats, 8)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := x.do(context.Background(), key, func() (*cache.Stats, *obs.Span, error) {
					mu.Lock()
					runs++
					mu.Unlock()
					<-release
					return stats(42)
				})
				if err != nil {
					t.Error(err)
				}
				results[i] = st
			}()
		}
		time.Sleep(20 * time.Millisecond)
		close(release)
		wg.Wait()
		if runs != 1 {
			t.Errorf("%d runs, want 1", runs)
		}
		for i, st := range results {
			if st == nil || st.Refs != 42 {
				t.Fatalf("cell %d: %+v", i, st)
			}
			for j := range i {
				if results[j] == st {
					t.Errorf("cells %d and %d share one *Stats", j, i)
				}
			}
		}
	})

	for _, tc := range []struct {
		name string
		fail func(ctx context.Context) error
	}{
		{"owner error", func(context.Context) error { return errors.New("boom") }},
		{"owner cancelled", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := executionsFrom(withExecutions(context.Background()))
			ownerCtx, cancel := context.WithCancel(context.Background())
			started, proceed := make(chan struct{}), make(chan struct{})
			ownerErr := make(chan error, 1)
			go func() {
				_, err := x.do(ownerCtx, key, func() (*cache.Stats, *obs.Span, error) {
					close(started)
					<-proceed
					return nil, nil, tc.fail(ownerCtx)
				})
				ownerErr <- err
			}()
			<-started
			waiterRuns := 0
			waiterDone := make(chan *cache.Stats, 1)
			go func() {
				st, err := x.do(context.Background(), key, func() (*cache.Stats, *obs.Span, error) {
					waiterRuns++
					return stats(7)
				})
				if err != nil {
					t.Error(err)
				}
				waiterDone <- st
			}()
			time.Sleep(20 * time.Millisecond) // let the waiter block on the owner
			close(proceed)
			cancel()
			if err := <-ownerErr; err == nil {
				t.Fatal("owner: want its failure")
			}
			if st := <-waiterDone; st == nil || st.Refs != 7 || waiterRuns != 1 {
				t.Fatalf("waiter: stats %+v after %d own runs, want its own result", st, waiterRuns)
			}
			// The failure is forgotten: the next cell runs afresh.
			if st, err := x.do(context.Background(), key, func() (*cache.Stats, *obs.Span, error) { return stats(9) }); err != nil || st.Refs != 9 {
				t.Fatalf("after a failed owner: %+v, %v", st, err)
			}
		})
	}

	t.Run("waiter cancelled", func(t *testing.T) {
		x := executionsFrom(withExecutions(context.Background()))
		started, release := make(chan struct{}), make(chan struct{})
		defer close(release)
		go x.do(context.Background(), key, func() (*cache.Stats, *obs.Span, error) {
			close(started)
			<-release
			return stats(1)
		})
		<-started
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := x.do(ctx, key, func() (*cache.Stats, *obs.Span, error) {
			t.Error("a cancelled waiter must not run")
			return stats(2)
		}); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}
