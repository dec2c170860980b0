package main

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/sim/cache"
	"falseshare/internal/vm"
)

// exactCounts are the traced counts later changes may rest a claim
// on; each must repeat exactly from one run to the next.
var exactCounts = []string{
	"vm.instrs",
	"vm.refs",
	"sim.cache.refs",
	"vm.alloc_mib",
	"layout.shared_mib",
	"vm.distinct_programs",
}

// tracedCounts runs a slice of each workload's traced decomposition:
// one program's Table 2 cells, one program's KSR2 sweep, and the fsd
// request kinds on a few generated programs.
func tracedCounts(t *testing.T) map[string]float64 {
	t.Helper()
	ctx := context.Background()
	l := newLayers()
	for _, slice := range []struct {
		bench  func() (*figureBench, error)
		prefix string
	}{
		{newTable2, "table2/pverify/"},
		{newKSRSweep, "fig4/maxflow/"},
	} {
		f, err := slice.bench()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Setup(); err != nil {
			t.Fatal(err)
		}
		for _, key := range f.enum.Keys() {
			if !strings.HasPrefix(key, slice.prefix) {
				continue
			}
			d, err := f.traceCell(ctx, l, key)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if d != f.exp.Stats[key] {
				t.Fatalf("%s: stats digest %s, want %s", key, d, f.exp.Stats[key])
			}
		}
	}
	fsd, err := newFSDMix(defaultCorpusSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range fsd.sources[:4] {
		np := fsdNprocs[i%len(fsdNprocs)]
		opt := core.Options{Nprocs: np, BlockSize: blockSize}
		var prog *core.Program
		if err := l.build(src, func() (err error) {
			prog, err = core.CompileCtx(ctx, src, opt)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.execute(ctx, prog, cache.DefaultConfig(np, blockSize), stepBudget, true); err != nil {
			t.Fatal(err)
		}
	}
	return l.metrics(0, 0, 0)
}

func TestTracedCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the VM over ~50 cells twice")
	}
	a, b := tracedCounts(t), tracedCounts(t)
	for _, name := range exactCounts {
		if a[name] == 0 {
			t.Errorf("%s is 0", name)
		}
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v", name, a[name], b[name])
		}
	}
}

// TestFSDPass drives one fsd-mix pass over the closed loop: every
// response must match its committed digest, and Close must remove the
// daemon's cache directory.
func TestFSDPass(t *testing.T) {
	f, err := newFSDMix(defaultCorpusSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Setup(); err != nil {
		t.Fatal(err)
	}
	dir := f.dir
	pr, err := f.Part(0)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if pr.ops != passRequests || pr.failed != 0 {
		t.Errorf("pass: %d ops, %d failed; want %d ops, none failed", pr.ops, pr.failed, passRequests)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("cache directory %s still there after Close (%v)", dir, err)
	}
}

func TestPackRoundTrip(t *testing.T) {
	for _, c := range []struct {
		ref  vm.Ref
		fits bool
	}{
		{vm.Ref{}, true},
		{vm.Ref{Proc: 55, Addr: 1<<40 - 1, Size: 8, Write: true}, true},
		{vm.Ref{Proc: 1<<16 - 1, Addr: 12345, Size: 4, Write: true}, true},
		{vm.Ref{Addr: 1 << 40, Size: 8}, false},
		{vm.Ref{Proc: 1 << 16, Addr: 64, Size: 8}, false},
	} {
		p, ok := pack(c.ref)
		if ok != c.fits {
			t.Errorf("pack(%+v) fits = %v", c.ref, ok)
			continue
		}
		if !ok {
			continue
		}
		proc, addr, size, write := unpack(p)
		if got := (vm.Ref{Proc: proc, Addr: addr, Size: int8(size), Write: write}); got != c.ref {
			t.Errorf("unpack(pack(%+v)) = %+v", c.ref, got)
		}
	}
}

// TestCalibrationFactor checks that a part is scaled by the median of
// the refWindow reference chunks around it, moved inwards at the
// run's ends.
func TestCalibrationFactor(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		var ds []time.Duration
		for _, x := range xs {
			ds = append(ds, time.Duration(x)*time.Millisecond)
		}
		return ds
	}
	nominal := refNominal.Seconds()
	for _, c := range []struct {
		refs []time.Duration
		part int
		want time.Duration // the median the part is scaled by
	}{
		{ms(10, 20, 30, 40, 50, 60, 70, 80), 0, 30 * time.Millisecond}, // chunks 0-4
		{ms(10, 20, 30, 40, 50, 60, 70, 80), 3, 50 * time.Millisecond}, // chunks 2-6
		{ms(10, 20, 30, 40, 50, 60, 70, 80), 6, 60 * time.Millisecond}, // chunks 3-7
		{ms(10, 20, 30), 1, 20 * time.Millisecond},                     // every chunk
		{ms(90, 10, 12, 11, 13, 14, 15), 1, 12 * time.Millisecond},     // a slow chunk does not decide
	} {
		if got, want := localScale(c.refs, refNominal, c.part), nominal/c.want.Seconds(); got != want {
			t.Errorf("refs %v part %d: factor %v, want %v", c.refs, c.part, got, want)
		}
	}
	cal := &calibration{walls: ms(30, 10, 20)}
	if got, want := cal.overall(), nominal/0.020; got != want {
		t.Errorf("overall: %v, want %v", got, want)
	}
}
