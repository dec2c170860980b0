package vm_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/faultinject"
	"falseshare/internal/vm"
)

// spinSource loops forever: the shape of a restructurer bug that
// produces a non-terminating program.
const spinSource = `
shared int sink[4];
void main() {
    int i;
    i = 0;
    while (i < 2000000000) {
        sink[pid % 4] = i;
        i = i + 1;
    }
}
`

// TestStepBudgetExceeded: a runaway program fails with a step-budget
// error naming the instruction count and pc instead of hanging.
func TestStepBudgetExceeded(t *testing.T) {
	prog, err := core.Compile(spinSource, core.Options{Nprocs: 2, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(bc)
	m.MaxInstrs = 50_000 // small cap so the test is instant
	err = m.Run(nil)
	if err == nil {
		t.Fatal("runaway program terminated?")
	}
	var re *vm.RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *vm.RunError, got %T: %v", err, err)
	}
	// The failing instruction is counted, so the process stops one
	// past the budget; pc and line are those of that instruction.
	want := "step budget exceeded (50000 instrs) at pc=11 (runaway program?)"
	if re.Proc != 0 || re.Fn != "main" || re.Line != 7 || re.Msg != want {
		t.Errorf("budget error %v, want proc 0 main:7 %q", err, want)
	}
	if n := m.Procs()[0].Instrs; n != 50_001 {
		t.Errorf("proc 0 ran %d instrs, want 50001", n)
	}
}

// TestRunCancellation: cancelling the machine's context stops the run
// promptly with the context's error.
func TestRunCancellation(t *testing.T) {
	prog, err := core.Compile(spinSource, core.Options{Nprocs: 2, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(bc)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	m.SetContext(ctx)
	start := time.Now()
	err = m.Run(nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v to take effect", d)
	}
}

// TestRunFaultPoint: an injected vm.run error aborts the run before
// any instruction executes.
func TestRunFaultPoint(t *testing.T) {
	s, err := faultinject.Parse("vm.run:error:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	t.Cleanup(faultinject.Disable)

	prog, err := core.Compile(spinSource, core.Options{Nprocs: 2, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(bc)
	m.MaxInstrs = 1000
	var fe *faultinject.Error
	if err := m.Run(nil); !errors.As(err, &fe) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if m.TotalInstrs() != 0 {
		t.Errorf("instructions ran before the fault: %d", m.TotalInstrs())
	}
}

// TestFailurePositions pins where a failing instruction is reported: the failing process, function, source line and message,
// and the instruction count the process had reached. The values were
// taken from a machine that wrote pc and counters back on every
// instruction, so a dispatch loop that reports a stale pc, line or
// count fails here.
func TestFailurePositions(t *testing.T) {
	const loop = `
shared int a[4];
shared int x;
struct S { int u; int v; };
shared struct S *p;
int f(int i) {
    int k;
    k = 0;
    while (k < i + 2) {
        k = k + 1;
    }
    return %s;
}
void main() {
    for (int i = 0; i < 8; i = i + 1) {
        x = x + f(i);
    }
}
`
	cases := []struct {
		name, src string
		proc      int
		fn        string
		line      int
		instrs    int64
		msg       string
	}{
		{"check", fmt.Sprintf(loop, "a[i + pid * 2]"), 1, "f", 12, 196, "index 4 out of range [0,4)"},
		{"div0", fmt.Sprintf(loop, "10 / (i - 3)"), 0, "f", 12, 267, "integer division by zero"},
		{"null load", fmt.Sprintf(loop, "p->v + i"), 0, "f", 12, 45, "null pointer dereference (address 0x4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := core.Compile(tc.src, core.Options{Nprocs: 2, BlockSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 2)
			if err != nil {
				t.Fatal(err)
			}
			m := vm.New(bc)
			err = m.Run(nil)
			var re *vm.RunError
			if !errors.As(err, &re) {
				t.Fatalf("want *vm.RunError, got %T: %v", err, err)
			}
			instrs := m.Procs()[re.Proc].Instrs
			if re.Proc != tc.proc || re.Fn != tc.fn || re.Line != tc.line || re.Msg != tc.msg {
				t.Errorf("failed at proc %d %s:%d %q, want proc %d %s:%d %q",
					re.Proc, re.Fn, re.Line, re.Msg, tc.proc, tc.fn, tc.line, tc.msg)
			}
			if instrs != tc.instrs {
				t.Errorf("proc %d ran %d instrs, want %d", re.Proc, instrs, tc.instrs)
			}
		})
	}
}
