package vm_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

// updateDigests rewrites testdata/trace_digests.txt instead of
// comparing:
//
//	go test ./internal/vm -run TestKernelTraceDigests -update-digests
var updateDigests = flag.Bool("update-digests", false, "rewrite the kernel trace digests with the current machine's")

// traceDigest runs bc to completion and hashes everything a consumer
// of the machine can observe: every reference (proc, addr, size,
// write) in emission order, then each process's Instrs/Refs/Spins and
// the barrier count.
func traceDigest(t *testing.T, bc *vm.Program) string {
	t.Helper()
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	var rec [18]byte
	m := vm.New(bc)
	err := m.Run(func(r vm.Ref) {
		binary.LittleEndian.PutUint64(rec[0:], uint64(r.Proc))
		binary.LittleEndian.PutUint64(rec[8:], uint64(r.Addr))
		rec[16] = byte(r.Size)
		rec[17] = 0
		if r.Write {
			rec[17] = 1
		}
		w.Write(rec[:])
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range m.Procs() {
		fmt.Fprintf(w, "|%d %d %d %d", p.ID, p.Instrs, p.Refs, p.Spins)
	}
	fmt.Fprintf(w, "|barriers %d", m.Barriers())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestKernelTraceDigests pins the machine's observable behaviour: for
// every kernel, original and restructured, at 1, 4 and 12 processes,
// the full reference trace and the per-process counters hash to the
// committed digests. A dispatch change that moves one reference, one
// interleaving step or one instruction count fails here. A change to
// the workloads, the restructurer or the bytecode compiler moves the
// digests as well; it regenerates them with -update-digests and says
// why.
func TestKernelTraceDigests(t *testing.T) {
	var got []string
	for _, b := range workload.All() {
		src := b.Source(1)
		for _, n := range []int{1, 4, 12} {
			res, err := core.Restructure(src, core.Options{Nprocs: n, BlockSize: 128})
			if err != nil {
				t.Fatalf("%s p%d: restructure: %v", b.Name, n, err)
			}
			for _, v := range []struct {
				name string
				prog *core.Program
			}{{"orig", res.Original}, {"xform", res.Transformed}} {
				bc, err := vm.Compile(v.prog.File, v.prog.Info, v.prog.Layout, n)
				if err != nil {
					t.Fatalf("%s p%d %s: compile: %v", b.Name, n, v.name, err)
				}
				got = append(got, fmt.Sprintf("%s %s p%d %s", b.Name, v.name, n, traceDigest(t, bc)))
			}
		}
	}
	path := filepath.Join("testdata", "trace_digests.txt")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d digests)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d digests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trace drifted:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
