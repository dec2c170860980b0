package vm

import (
	"errors"
	"strings"
	"testing"

	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/types"
	"falseshare/internal/layout"
)

// compileRaw runs the front end and vm compiler without core's
// convenience wrapper, so tests can reach vm-level errors.
func compileRaw(t *testing.T, src string, nprocs int) (*Program, error) {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	lay, err := layout.Compute(info, layout.NewDirectives(64), int64(nprocs))
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	return Compile(f, info, lay, nprocs)
}

func TestCompileProducesLineInfo(t *testing.T) {
	src := `
shared int a[4];
void main() {
    a[0] = 1;
}
`
	prog, err := compileRaw(t, src, 2)
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Funcs[prog.Main]
	hasLine := false
	for _, in := range main.Code {
		if in.Line == 4 {
			hasLine = true
		}
	}
	if !hasLine {
		t.Errorf("no instruction carries the assignment's line:\n%s", main.Disasm())
	}
}

func TestCompileBoundsChecksEmitted(t *testing.T) {
	src := `
shared int a[7];
void main() {
    for (int i = 0; i < 7; i = i + 1) {
        a[i] = i;
    }
}
`
	prog, err := compileRaw(t, src, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range prog.Funcs[prog.Main].Code {
		if in.Op == OpCheck && in.A == 7 {
			found = true
		}
	}
	if !found {
		t.Errorf("bounds check missing:\n%s", prog.Funcs[prog.Main].Disasm())
	}
}

func TestCompileNprocsSizedArrays(t *testing.T) {
	src := `
shared int per[2 * nprocs];
void main() {
    per[pid] = 1;
    per[pid + nprocs] = 2;
}
`
	for _, n := range []int{1, 7, 56} {
		prog, err := compileRaw(t, src, n)
		if err != nil {
			t.Fatalf("nprocs=%d: %v", n, err)
		}
		m := New(prog)
		if err := m.Run(nil); err != nil {
			t.Fatalf("nprocs=%d run: %v", n, err)
		}
	}
}

func TestMachineAccessors(t *testing.T) {
	src := `
shared int x;
shared double d;
void main() {
    if (pid == 0) {
        x = 42;
        d = 1.25;
    }
}
`
	f, _ := parser.Parse(src)
	info, _ := types.Check(f)
	lay, _ := layout.Compute(info, layout.NewDirectives(64), 2)
	prog, err := Compile(f, info, lay, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog)
	if err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadInt(lay.Var("x").Base); got != 42 {
		t.Errorf("ReadInt = %d", got)
	}
	if got := m.ReadDouble(lay.Var("d").Base); got != 1.25 {
		t.Errorf("ReadDouble = %v", got)
	}
	if m.MemSize() != prog.SharedEnd {
		t.Errorf("MemSize = %d, want %d", m.MemSize(), prog.SharedEnd)
	}
	// Counters populated.
	for _, p := range m.Procs() {
		if p.Instrs == 0 {
			t.Errorf("proc %d executed nothing", p.ID)
		}
	}
}

func TestRunErrorFormatting(t *testing.T) {
	e := &RunError{Proc: 3, Fn: "main", Line: 7, Msg: "boom"}
	s := e.Error()
	for _, want := range []string{"proc 3", "main:7", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("error %q missing %q", s, want)
		}
	}
}

// TestLocalArraySizeOverflowRejected: a local array whose byte size
// wraps int64 once compiled to a negative OpLocalArr size, so the
// private bump pointer moved backwards and the program ran to
// completion. Compile now fails, naming the array.
func TestLocalArraySizeOverflowRejected(t *testing.T) {
	src := `
void f() {
    int a[2305843009213693952];
    a[0] = 1;
}
void main() { f(); }
`
	_, err := compileRaw(t, src, 2)
	if !errors.Is(err, layout.ErrTooLarge) || !strings.Contains(err.Error(), `local array "a"`) {
		t.Fatalf("err = %v, want ErrTooLarge naming local array \"a\"", err)
	}
	// A private global past the private space's bound is rejected too.
	_, err = compileRaw(t, "private int big[2000000000];\nvoid main() { }", 2)
	if !errors.Is(err, layout.ErrTooLarge) || !strings.Contains(err.Error(), `"big"`) {
		t.Fatalf("err = %v, want ErrTooLarge naming private global \"big\"", err)
	}
}

// TestProgramDigest: the digest is a function of the compiled program
// alone — recompiling gives the same digest — and it moves with the
// code, a source line, and the address-space map.
func TestProgramDigest(t *testing.T) {
	const src = `
shared int a[8];
void main() {
    a[pid] = 1;
}
`
	digest := func(src string, nprocs int) [32]byte {
		t.Helper()
		prog, err := compileRaw(t, src, nprocs)
		if err != nil {
			t.Fatal(err)
		}
		return prog.Digest()
	}
	base := digest(src, 4)
	if digest(src, 4) != base {
		t.Fatal("recompiling the same source changed the digest")
	}
	for name, d := range map[string][32]byte{
		"code":   digest(strings.Replace(src, "= 1", "= 2", 1), 4),
		"line":   digest(strings.Replace(src, "void main() {", "void main() {\n", 1), 4),
		"layout": digest(strings.Replace(src, "a[8]", "a[16]", 1), 4),
		"nprocs": digest(src, 8),
	} {
		if d == base {
			t.Errorf("changing the %s left the digest unchanged", name)
		}
	}
}
