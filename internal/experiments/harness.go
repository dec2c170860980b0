// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5): Figure 3 (miss-rate bars), Table 2
// (false-sharing reduction by transformation), Figure 4 (speedup
// curves), Table 3 (maximum speedups), and the Section 1/5 aggregate
// claims. Each experiment builds its programs through the restructurer
// (never from hand-written "compiler" versions), executes them on the
// VM, and measures them with the cache simulator and the KSR2 time
// model.
package experiments

import (
	"context"
	"fmt"

	"falseshare/internal/core"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/trace"
	"falseshare/internal/transform"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

// Version identifies a program version as in the paper's Table 1.
type Version string

const (
	// VersionN is the unoptimized program.
	VersionN Version = "N"
	// VersionC is the compiler-restructured program.
	VersionC Version = "C"
	// VersionP is the hand-optimized program.
	VersionP Version = "P"
)

// Config parameterizes the experiment harness.
type Config struct {
	// Scale multiplies workload sizes (1 = paper-shaped experiment
	// runs; tests use smaller).
	Scale int
	// Workers bounds the experiment pool's concurrency (fsexp -j).
	// Zero or negative means runtime.GOMAXPROCS; 1 runs every job
	// serially in submission order on the calling goroutine. Results
	// are identical at any worker count — the jobs share nothing but
	// read-only workload sources.
	Workers int
	// Fig3Procs is the Figure 3 processor count (12 in the paper;
	// Topopt ran on 9).
	Fig3Procs       int
	Fig3ProcsTopopt int
	// Fig3Blocks are the block sizes shown in Figure 3.
	Fig3Blocks []int64
	// Table2Blocks are the block sizes Table 2 averages over.
	Table2Blocks []int64
	// SweepCounts are the processor counts for Figure 4 / Table 3.
	SweepCounts []int

	// Ctx, when non-nil, cancels the whole run: jobs in flight observe
	// the cancellation through their context, unstarted jobs are
	// skipped. The CLIs route Ctrl-C through here.
	Ctx context.Context
	// Policy governs the experiment pool's failure handling: fail-fast
	// vs keep-going, per-job deadlines, retries. The zero value runs
	// every job with no deadline (the historical behavior).
	Policy pool.Policy
	// Store, when non-nil, checkpoints every completed fingerprinted
	// cell and replays cells already stored (fsexp -resume).
	Store *Store
	// StepBudget caps per-process VM instructions per execution
	// (0: the VM default of 1e9), so runaway programs fail instead of
	// hanging a job forever.
	StepBudget int64
	// Verify enables safe mode for every compiler-restructured cell:
	// each C program is translation-validated against its original,
	// and objects that fail validation (or whose transformation fails
	// to apply) are degraded to the identity layout and recorded — see
	// DegradedEvents.
	Verify bool
	// Diag enables miss attribution for the Figure 3 and Table 2
	// cells: each measured simulation carries an attr.Collector, and
	// the per-object reports are recorded against the cell key — see
	// DiagCells and RenderDiag.
	Diag bool
	// Runner, when non-nil, executes cells in other processes: every
	// driver fan-out is dispatched through it instead of the local
	// pool (store hits still resolve locally first). The distributed
	// fabric's coordinator implements it; see CellRunner.
	Runner CellRunner

	// enum, when non-nil, switches runJobs into enumeration mode:
	// jobs are captured into the grid instead of executed. Set only
	// by Collect.
	enum *Enumeration
}

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Scale:           1,
		Fig3Procs:       12,
		Fig3ProcsTopopt: 9,
		Fig3Blocks:      []int64{16, 128},
		Table2Blocks:    []int64{8, 16, 32, 64, 128, 256},
		SweepCounts:     []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56},
	}
}

// Program builds one version of a benchmark, compiled and laid out for
// the given processor count and block size. The C version is produced
// by the restructurer; heur tweaks its heuristics (ablations).
func Program(b *workload.Benchmark, ver Version, nprocs int, scale int, block int64, heur transform.Config) (*core.Program, error) {
	return ProgramCtx(context.Background(), b, ver, nprocs, scale, block, heur)
}

// ProgramCtx is Program with cooperative cancellation through the
// compiler pipeline.
func ProgramCtx(ctx context.Context, b *workload.Benchmark, ver Version, nprocs int, scale int, block int64, heur transform.Config) (*core.Program, error) {
	opt := core.Options{Nprocs: nprocs, BlockSize: block, Heuristics: heur}
	switch ver {
	case VersionN:
		if !b.HasN {
			return nil, fmt.Errorf("%s has no unoptimized version", b.Name)
		}
		return core.CompileCtx(ctx, b.Source(scale), opt)
	case VersionP:
		src := b.ProgrammerSource(scale)
		if src == "" {
			return nil, fmt.Errorf("%s has no programmer version", b.Name)
		}
		return core.CompileCtx(ctx, src, opt)
	case VersionC:
		res, err := core.RestructureCtx(ctx, b.Source(scale), opt)
		if err != nil {
			return nil, err
		}
		return res.Transformed, nil
	}
	return nil, fmt.Errorf("unknown version %q", ver)
}

// runJobs routes every experiment's fan-out through the configured
// context, failure policy and cell store: jobs already stored in
// cfg.Store return their stored results without running, fresh
// completions are committed as they finish (see storeJobs).
//
// Two alternate modes branch here, both invisible to the drivers:
// with cfg.enum set (Collect) the store-wrapped jobs are captured, not
// run, and the driver sees zero-valued results behind an errCollected
// sentinel; with cfg.Runner set the cells execute in other processes
// and the results and spans are reassembled locally.
func runJobs[T any](cfg Config, name string, jobs []pool.Job[T]) ([]T, error) {
	jobs = storeJobs(cfg.Store, jobs)
	if cfg.enum != nil {
		collectJobs(cfg.enum, jobs)
		return make([]T, len(jobs)), errCollected
	}
	if cfg.Runner != nil {
		return runRemote(cfg, name, jobs)
	}
	return pool.RunPolicy(cfg.Ctx, name, cfg.Workers, cfg.Policy, jobs)
}

// Baseline returns the version speedups are measured against: N when
// it exists, else P (the original program).
func Baseline(b *workload.Benchmark) Version {
	if b.HasN {
		return VersionN
	}
	return VersionP
}

// Versions lists the versions available for a benchmark, in N, C, P
// order.
func Versions(b *workload.Benchmark) []Version {
	var out []Version
	if b.HasN {
		out = append(out, VersionN)
	}
	out = append(out, VersionC)
	if b.HasP {
		out = append(out, VersionP)
	}
	return out
}

// MeasureBlocks executes a program once and measures it with one cache
// simulator per block size (the trace is identical across block
// sizes, so a single execution feeds them all). With more than one
// block size the simulators run sharded across goroutines; see
// MeasureBlocksN.
func MeasureBlocks(prog *core.Program, blocks []int64) ([]*cache.Stats, error) {
	return MeasureBlocksN(prog, blocks, 0)
}

// MeasureBlocksN is MeasureBlocks with an explicit worker bound
// (<= 0: runtime.GOMAXPROCS); see MeasureBlocksCtx.
func MeasureBlocksN(prog *core.Program, blocks []int64, workers int) ([]*cache.Stats, error) {
	return MeasureBlocksCtx(context.Background(), prog, blocks, workers, 0)
}

// MeasureBlocksCtx is the full-control measurement entry point: ctx
// cancels the VM mid-execution, budget caps per-process instructions
// (0: the VM default), workers bounds the simulator shards (<= 0:
// runtime.GOMAXPROCS). With workers == 1 — or a single block size, or
// a single available CPU — the VM feeds every simulator inline from
// its own goroutine, the pre-sharding serial path. Otherwise the VM
// publishes references in fixed-size batches to one goroutine per
// block-size simulator: every simulator still consumes the identical
// full trace in order, so the stats match the serial path exactly.
func MeasureBlocksCtx(ctx context.Context, prog *core.Program, blocks []int64, workers int, budget int64) ([]*cache.Stats, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("experiments: MeasureBlocks: no block sizes given")
	}
	sp := obs.Begin("measure")
	defer sp.End()
	sp.Set("blocks", int64(len(blocks)))
	nprocs := int(prog.Layout.Nprocs)
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		return nil, err
	}
	sims := make([]*cache.Sim, len(blocks))
	for i, blk := range blocks {
		sims[i], err = cache.New(cache.DefaultConfig(nprocs, blk))
		if err != nil {
			return nil, fmt.Errorf("experiments: MeasureBlocks: block %d: %w", blk, err)
		}
	}
	m := vm.New(bc)
	m.SetContext(ctx)
	if budget > 0 {
		m.MaxInstrs = budget
	}
	installMetrics(sims, blocks)

	if pool.Workers(workers) == 1 || len(blocks) == 1 {
		if err := m.Run(func(r vm.Ref) {
			for _, s := range sims {
				s.Access(r.Proc, r.Addr, int64(r.Size), r.Write)
			}
		}); err != nil {
			return nil, err
		}
	} else {
		sinks := make([]trace.Sink, len(sims))
		for i, s := range sims {
			s := s
			sinks[i] = func(r vm.Ref) { s.Access(r.Proc, r.Addr, int64(r.Size), r.Write) }
		}
		pt := trace.NewParTee(0, sinks...)
		// The deferred Close (idempotent) guarantees the simulator
		// goroutines are shut down even when m.Run panics — without it
		// a panic between NewParTee and Close would leak one goroutine
		// per block size, parked on its channel forever.
		defer pt.Close()
		// One worker span per simulator, attached under measure in
		// block order before the stream starts.
		for i, blk := range blocks {
			pt.SetSpan(i, sp.Child(fmt.Sprintf("sim:b%d", blk)))
		}
		runErr := m.Run(pt.Sink())
		if err := pt.Close(); err != nil {
			return nil, err
		}
		if runErr != nil {
			return nil, runErr
		}
	}

	out := make([]*cache.Stats, len(sims))
	for i, s := range sims {
		out[i] = s.Stats()
	}
	return out, nil
}

// metricsEvery is the streaming-metrics period in block references:
// long simulations emit one obs metrics snapshot per interval so
// multi-minute sweeps show live progress instead of going dark.
const metricsEvery = 5_000_000

// installMetrics wires each simulator's sampler to the current
// recorder's metrics sink. The recorder is captured here because the
// sharded path invokes samplers from worker goroutines with no
// recorder binding of their own. No recorder: no sampler, and the
// simulator hot path keeps its zero-cost disabled branch.
func installMetrics(sims []*cache.Sim, blocks []int64) {
	rec := obs.Current()
	if rec == nil {
		return
	}
	for i, s := range sims {
		src := fmt.Sprintf("sim:b%d", blocks[i])
		s.SetSampler(metricsEvery, func(st *cache.Stats) {
			rec.EmitMetrics(src, map[string]int64{
				"refs":   st.Refs,
				"misses": st.Misses(),
				"false":  st.FalseShare,
				"true":   st.TrueShare,
			})
		})
	}
}
