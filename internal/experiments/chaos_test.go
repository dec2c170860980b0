package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
)

// The chaos suite drives the fault-injection harness through the real
// experiment stack: deterministic faults (error, panic, delay) at the
// pool worker, inside the VM run loop, and in the ParTee simulator
// workers, under the keep-going policy. Every case asserts the same
// three things the runner promises: the pool drains cleanly (complete
// per-job accounting, no hang, no leaked goroutine — the race
// detector rides along in CI), the cell store holds exactly the cells
// that succeeded, and a resumed run completes the rest and converges
// to the same results as an undisturbed run.

// chaosSource is a small terminating program whose per-process writes
// actually false-share, so the measured counters are non-trivial.
const chaosSource = `
shared int cells[16];
void main() {
    int i;
    i = 0;
    while (i < 3000) {
        cells[pid] = cells[pid] + i;
        i = i + 1;
    }
}
`

// chaosJobs builds n identical compile→run→simulate jobs over the
// chaos program. simWorkers > 1 with several blocks routes the
// measurement through the ParTee fan-out (the trace.partee fault
// point); 1 keeps it on the serial path. Each job carries a distinct
// fingerprint so the cell store keeps it.
func chaosJobs(blocks []int64, n, simWorkers int) []pool.Job[int64] {
	jobs := make([]pool.Job[int64], n)
	for i := range jobs {
		jobs[i] = pool.Job[int64]{
			Key:         fmt.Sprintf("chaos/cell%d", i),
			Fingerprint: fingerprint("chaos", fmt.Sprintf("cell=%d", i), fmt.Sprintf("blocks=%v", blocks), fmt.Sprintf("simw=%d", simWorkers)),
			Run: func(ctx context.Context) (int64, error) {
				prog, err := core.CompileCtx(ctx, chaosSource, core.Options{Nprocs: 4, BlockSize: blocks[0]})
				if err != nil {
					return 0, err
				}
				stats, err := MeasureBlocksCtx(ctx, prog, blocks, simWorkers, 0)
				if err != nil {
					return 0, err
				}
				return stats[0].Refs, nil
			},
		}
	}
	return jobs
}

// TestChaosMatrix: error/panic/delay at each fault point, keep-going,
// with a cell store. Failures must be confined to the injected count,
// the store must keep exactly the survivors, and a resumed run
// (faults off) must recompute exactly the failed cells.
func TestChaosMatrix(t *testing.T) {
	const nJobs = 6
	serialBlocks := []int64{64}
	parBlocks := []int64{16, 32, 64, 128}

	cases := []struct {
		name     string
		spec     string
		blocks   []int64
		simW     int
		wantFail int
	}{
		// Pool-worker faults hit before the job body runs; the match
		// pins the victim, so the failed key is exact.
		{"pool-error", "pool.worker=chaos/cell3:error", serialBlocks, 1, 1},
		{"pool-panic", "pool.worker=chaos/cell3:panic", serialBlocks, 1, 1},
		{"pool-delay", "pool.worker:delay=2ms", serialBlocks, 1, 0},
		// VM faults fire inside Machine.Run; count=1 fails exactly one
		// cell (which one depends on scheduling — that's the point).
		{"vm-error", "vm.run:error:count=1", serialBlocks, 1, 1},
		{"vm-panic", "vm.run:panic:count=1", serialBlocks, 1, 1},
		{"vm-delay", "vm.run:delay=2ms:count=3", serialBlocks, 1, 0},
		// Compiler-stage fault.
		{"core-error", "core.compile:error:count=1", serialBlocks, 1, 1},
		// ParTee faults fire in a simulator worker goroutine; the
		// producer must drain, the job must fail, nothing may hang.
		{"partee-error", "trace.partee=0:error:count=1", parBlocks, 4, 1},
		{"partee-panic", "trace.partee=0:panic:count=1", parBlocks, 4, 1},
		{"partee-delay", "trace.partee:delay=2ms:count=4", parBlocks, 4, 0},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Workers: 4,
				Policy:  pool.Policy{FailFast: false},
				Store:   st,
			}
			s, err := faultinject.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Enable(s)
			results, err := runJobs(cfg, "chaos", chaosJobs(tc.blocks, nJobs, tc.simW))
			faultinject.Disable()

			if tc.wantFail == 0 {
				if err != nil {
					t.Fatalf("delay fault must not fail jobs: %v", err)
				}
				if n := st.Counters().Entries; n != nJobs {
					t.Fatalf("store has %d cells, want %d", n, nJobs)
				}
				return
			}

			failures := pool.Failures(err)
			if len(failures) != tc.wantFail {
				t.Fatalf("failures = %d (%v), want %d", len(failures), err, tc.wantFail)
			}
			failedSet := map[string]bool{}
			for _, f := range failures {
				failedSet[f.Key] = true
			}
			// Keep-going: every cell has a definite outcome and the
			// survivors carry real results.
			for i, r := range results {
				key := fmt.Sprintf("chaos/cell%d", i)
				if failedSet[key] {
					continue
				}
				if r <= 0 {
					t.Errorf("%s: surviving cell has empty result %d", key, r)
				}
			}
			// The store kept exactly the survivors.
			if n := st.Counters().Entries; n != int64(nJobs-tc.wantFail) {
				t.Errorf("store has %d cells, want %d", n, nJobs-tc.wantFail)
			}

			// Resume with faults off: only the failed cells re-run, and
			// the final results match an undisturbed run.
			st2, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Store = st2
			resumed, err := runJobs(cfg, "chaos", chaosJobs(tc.blocks, nJobs, tc.simW))
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if c := st2.Counters(); c.Misses != int64(tc.wantFail) || c.Hits != int64(nJobs-tc.wantFail) {
				t.Errorf("resume: hits=%d misses=%d, want %d/%d", c.Hits, c.Misses, nJobs-tc.wantFail, tc.wantFail)
			}
			clean, err := runJobs(Config{Workers: 4}, "chaos", chaosJobs(tc.blocks, nJobs, tc.simW))
			if err != nil {
				t.Fatal(err)
			}
			for i := range clean {
				if resumed[i] != clean[i] {
					t.Errorf("cell%d: resumed %d != clean %d", i, resumed[i], clean[i])
				}
			}
		})
	}
}

// TestChaosFailFastDrain: under fail-fast, one injected failure must
// cancel the rest promptly — every remaining cell reports skipped (and
// cancelled), none hangs — while the error still carries the root
// cause.
func TestChaosFailFastDrain(t *testing.T) {
	s, err := faultinject.Parse("pool.worker=chaos/cell0:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	t.Cleanup(faultinject.Disable)

	cfg := Config{Workers: 1, Policy: pool.Policy{FailFast: true}}
	done := make(chan error, 1)
	go func() {
		_, err := runJobs(cfg, "chaos", chaosJobs([]int64{64}, 8, 1))
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("fail-fast run did not drain")
	}
	var fe *faultinject.Error
	if !errors.As(err, &fe) {
		t.Fatalf("root cause lost: %v", err)
	}
	failures := pool.Failures(err)
	if len(failures) != 8 {
		t.Fatalf("want all 8 cells accounted, got %d", len(failures))
	}
	skipped := 0
	for _, f := range failures[1:] {
		if errors.Is(f.Err, pool.ErrSkipped) {
			skipped++
		}
	}
	if skipped != 7 {
		t.Errorf("want 7 skipped cells after the serial fail-fast failure, got %d", skipped)
	}
}

// TestChaosInterruptedResumeManifest is the acceptance criterion:
// a run interrupted partway (fail-fast cancellation after an injected
// failure) and then resumed from its cell store must produce a manifest
// byte-identical — modulo timing fields — to an uninterrupted run.
func TestChaosInterruptedResumeManifest(t *testing.T) {
	cfg := determinismConfig(4)

	// Uninterrupted reference run.
	clean := manifestBytes(t, "fig3", cfg, func() (any, error) { return Figure3(cfg) })

	// Interrupted run: one cell fails, fail-fast cancels the rest.
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := faultinject.Parse("pool.worker=fig3/pverify/C/b128:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	icfg := cfg
	icfg.Store = st
	icfg.Policy = pool.Policy{FailFast: true}
	_, ierr := RunManifest("fsexp", "fig3", ConfigMap(icfg), func() (any, error) { return Figure3(icfg) })
	faultinject.Disable()
	if ierr == nil {
		t.Fatal("interrupted run reported success")
	}
	completed := st.Counters().Entries
	if !errors.Is(ierr, pool.ErrSkipped) && completed == 0 {
		t.Log("note: no cells were skipped — interruption landed late")
	}

	// Resumed run: stored cells replay from the store, the rest
	// execute fresh.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Store = st2
	resumed := manifestBytes(t, "fig3", rcfg, func() (any, error) { return Figure3(rcfg) })

	if !bytes.Equal(clean, resumed) {
		d1, d2 := firstDiff(clean, resumed)
		t.Errorf("resumed manifest differs from uninterrupted run (%d cells were checkpointed):\n--- clean ---\n%s\n--- resumed ---\n%s",
			completed, d1, d2)
	}
	if c := st2.Counters(); c.Hits != completed || c.Entries <= completed {
		t.Errorf("resume: hits=%d entries=%d, want hits=%d and the remaining cells stored", c.Hits, c.Entries, completed)
	}
}

// TestMeasureBlocksPanicDrainsParTee is the goroutine-leak regression
// test: when the VM panics between NewParTee and Close, the deferred
// close must still drain and join every simulator goroutine.
func TestMeasureBlocksPanicDrainsParTee(t *testing.T) {
	prog, err := core.Compile(chaosSource, core.Options{Nprocs: 4, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	s, err := faultinject.Parse("vm.run:panic:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	t.Cleanup(faultinject.Disable)

	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the injected VM panic to propagate")
			}
		}()
		MeasureBlocksN(prog, []int64{16, 32, 64, 128}, 4)
	}()

	// The four simulator workers must exit; give the scheduler a
	// moment, then compare against the pre-call count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
