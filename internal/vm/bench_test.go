package vm_test

import (
	"fmt"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

// BenchmarkRun times one kernel on the VM alone — vm.New plus Run into
// a nil sink, no simulator — at 12 and 56 processes. It reports
// ns/instr; B/op counts everything one run allocates, the page
// directories and the pages the run touches included.
func BenchmarkRun(b *testing.B) {
	src := workload.Get("maxflow").Source(1)
	for _, n := range []int{12, 56} {
		b.Run(fmt.Sprintf("p%d", n), func(b *testing.B) {
			prog, err := core.Compile(src, core.Options{Nprocs: n, BlockSize: 128})
			if err != nil {
				b.Fatal(err)
			}
			bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var instrs int64
			for range b.N {
				m := vm.New(bc)
				if err := m.Run(nil); err != nil {
					b.Fatal(err)
				}
				instrs += m.TotalInstrs()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// TestRunAllocs is the deterministic allocation gate on one VM run:
// maxflow at 12 processes into a nil sink. Frame locals come from a
// per-process stack, so calls allocate nothing; what remains is the
// machine, its page directories, the pages the run touches and the
// allocation records: about 120 allocations (132 under the race
// detector). A machine that allocated each call's locals made about
// 15 100 here.
func TestRunAllocs(t *testing.T) {
	prog, err := core.Compile(workload.Get("maxflow").Source(1), core.Options{Nprocs: 12, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 12)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := vm.New(bc).Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run", allocs)
	if allocs > 250 {
		t.Errorf("%.0f allocations per run, want at most 250", allocs)
	}
}
