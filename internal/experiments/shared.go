package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/vm"
)

// Shared executions. Table 2's single-transformation ablations often
// compile to exactly the unoptimized program (a transformation that
// does not apply changes nothing), so one driver call would execute
// byte-identical programs against identical simulators several times.
// Within one runJobs call, cells whose executions have the same key
// share one VM+simulator run: the first cell runs it, later cells
// wait for its result.
//
// The key is sha256 of the compiled program's digest, the step budget
// and the simulator configuration — everything the statistics depend
// on. A failed, cancelled or panicking execution is never shared: each
// cell waiting on it runs on its own, so per-cell failure accounting
// is what it would be without sharing. Attributed (-diag) cells never
// take part: their reports depend on the layout's object map.

// execKey identifies one execution: program, budget and simulator.
type execKey [32]byte

func newExecKey(bc *vm.Program, budget int64, cc cache.Config) execKey {
	d := bc.Digest()
	b := binary.LittleEndian.AppendUint64(d[:], uint64(budget))
	b = fmt.Appendf(b, "%+v", cc)
	return sha256.Sum256(b)
}

// execution is one memo entry. done closes when the owner finishes;
// ok reports whether stats and span then hold its result.
type execution struct {
	done  chan struct{}
	ok    bool
	stats cache.Stats // by value: a *Stats would keep its simulator alive
	span  *obs.Span   // snapshot of the owner's measure span
}

// executions is the single-flight memo of one runJobs call.
type executions struct {
	mu sync.Mutex
	m  map[execKey]*execution
}

type executionsKey struct{}

// withExecutions returns ctx carrying a fresh, empty memo.
func withExecutions(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, executionsKey{}, &executions{m: map[execKey]*execution{}})
}

func executionsFrom(ctx context.Context) *executions {
	x, _ := ctx.Value(executionsKey{}).(*executions)
	return x
}

// do returns the result of the execution keyed by key, calling run
// only when no earlier cell of this memo has it or is computing it. A
// cell that reuses a result adopts a copy of the owner's measure span
// (so manifests look the same whichever cell ran) and counts one
// "shared" on the pool run's span. A waiter honours its own ctx, and
// runs on its own when the owner fails.
func (x *executions) do(ctx context.Context, key execKey, run func() (*cache.Stats, *obs.Span, error)) (*cache.Stats, error) {
	x.mu.Lock()
	e := x.m[key]
	if e == nil {
		e = &execution{done: make(chan struct{})}
		x.m[key] = e
		x.mu.Unlock()
		return x.own(key, e, run)
	}
	x.mu.Unlock()
	select {
	case <-e.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if !e.ok {
		st, _, err := run()
		return st, err
	}
	if e.span != nil {
		obs.Current().Adopt([]*obs.Span{e.span.Snapshot()})
	}
	pool.RunSpan(ctx).Count("shared", 1)
	st := e.stats
	return &st, nil
}

// own runs the execution for every cell that shares its key. An
// execution that fails or panics is forgotten, so a later cell with
// the key runs it afresh.
func (x *executions) own(key execKey, e *execution, run func() (*cache.Stats, *obs.Span, error)) (*cache.Stats, error) {
	defer func() {
		if !e.ok {
			x.mu.Lock()
			delete(x.m, key)
			x.mu.Unlock()
		}
		close(e.done)
	}()
	st, sp, err := run()
	if err != nil {
		return nil, err
	}
	e.stats, e.span, e.ok = *st, sp.Snapshot(), true
	return st, nil
}
