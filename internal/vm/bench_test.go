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
