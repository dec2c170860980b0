package vm_test

import (
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/vm"
)

// run compiles and executes src with nprocs processes, returning the
// machine and the collected trace.
func run(t *testing.T, src string, nprocs int) (*vm.Machine, []vm.Ref, *core.Program) {
	t.Helper()
	prog, err := core.Compile(src, core.Options{Nprocs: nprocs, BlockSize: 64})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return runProgram(t, prog, nprocs)
}

func runProgram(t *testing.T, prog *core.Program, nprocs int) (*vm.Machine, []vm.Ref, *core.Program) {
	t.Helper()
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	m := vm.New(bc)
	var trace []vm.Ref
	if err := m.Run(func(r vm.Ref) { trace = append(trace, r) }); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, trace, prog
}

func globalInt(t *testing.T, m *vm.Machine, prog *core.Program, name string, idx ...int64) int64 {
	t.Helper()
	vl := prog.Layout.Var(name)
	if vl == nil {
		t.Fatalf("no layout for %q", name)
	}
	return m.ReadInt(vl.Address(idx))
}

func TestArithmeticAndControlFlow(t *testing.T) {
	src := `
shared int out[8];
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
void main() {
    if (pid == 0) {
        out[0] = fib(10);
        out[1] = 7 % 3;
        out[2] = (2 + 3) * 4;
        out[3] = 17 / 5;
        out[4] = -5;
        out[5] = !0;
        out[6] = 1 < 2 && 3 > 2;
        out[7] = 0 || 2 == 2;
    }
}
`
	m, _, prog := run(t, src, 2)
	want := []int64{55, 1, 20, 3, -5, 1, 1, 1}
	for i, w := range want {
		if got := globalInt(t, m, prog, "out", int64(i)); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestDoubleArithmetic(t *testing.T) {
	src := `
shared double d[4];
void main() {
    if (pid == 0) {
        d[0] = 1.5 + 2.25;
        d[1] = 10.0 / 4.0;
        d[2] = 3;
        d[3] = d[0] * 2.0;
    }
}
`
	m, _, prog := run(t, src, 1)
	vl := prog.Layout.Var("d")
	want := []float64{3.75, 2.5, 3.0, 7.5}
	for i, w := range want {
		if got := m.ReadDouble(vl.Address([]int64{int64(i)})); got != w {
			t.Errorf("d[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestSPMDPartitioning(t *testing.T) {
	src := `
shared int a[64];
void main() {
    for (int i = pid; i < 64; i = i + nprocs) {
        a[i] = a[i] + i;
    }
}
`
	m, _, prog := run(t, src, 4)
	for i := int64(0); i < 64; i++ {
		if got := globalInt(t, m, prog, "a", i); got != i {
			t.Errorf("a[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	src := `
shared int a[16];
shared int sum;
void main() {
    a[pid] = pid + 1;
    barrier;
    if (pid == 0) {
        for (int i = 0; i < nprocs; i = i + 1) {
            sum = sum + a[i];
        }
    }
}
`
	m, _, prog := run(t, src, 8)
	if got := globalInt(t, m, prog, "sum"); got != 36 {
		t.Errorf("sum = %d, want 36", got)
	}
	if m.Barriers() != 1 {
		t.Errorf("barrier episodes = %d, want 1", m.Barriers())
	}
}

func TestLockMutualExclusion(t *testing.T) {
	src := `
shared int counter;
lock l;
void main() {
    for (int i = 0; i < 100; i = i + 1) {
        acquire(l);
        counter = counter + 1;
        release(l);
    }
}
`
	m, trace, prog := run(t, src, 8)
	if got := globalInt(t, m, prog, "counter"); got != 800 {
		t.Errorf("counter = %d, want 800", got)
	}
	// Lock contention must generate spin reads of the lock word.
	lockAddr := prog.Layout.Var("l").Base
	spins := int64(0)
	for _, p := range m.Procs() {
		spins += p.Spins
	}
	if spins == 0 {
		t.Errorf("expected lock spinning under contention")
	}
	reads := 0
	for _, r := range trace {
		if r.Addr == lockAddr && !r.Write {
			reads++
		}
	}
	if reads < 800 {
		t.Errorf("lock reads = %d, want >= 800", reads)
	}
}

func TestHeapAllocationAndStructs(t *testing.T) {
	src := `
struct Node {
    int value;
    double weight;
    struct Node *next;
};
shared struct Node *head;
shared int total;
void main() {
    if (pid == 0) {
        for (int i = 0; i < 10; i = i + 1) {
            struct Node *n;
            n = alloc(struct Node);
            n->value = i;
            n->weight = 0.5;
            n->next = head;
            head = n;
        }
        struct Node *p;
        p = head;
        while (p != 0) {
            total = total + p->value;
            p = p->next;
        }
    }
}
`
	m, _, prog := run(t, src, 2)
	if got := globalInt(t, m, prog, "total"); got != 45 {
		t.Errorf("total = %d, want 45", got)
	}
}

func TestDynamicArrayViaPointer(t *testing.T) {
	src := `
shared int *data;
shared int sum;
void main() {
    if (pid == 0) {
        data = alloc(int, 32);
        for (int i = 0; i < 32; i = i + 1) {
            data[i] = i;
        }
    }
    barrier;
    if (pid == 1) {
        for (int i = 0; i < 32; i = i + 1) {
            sum = sum + data[i];
        }
    }
}
`
	m, _, prog := run(t, src, 2)
	if got := globalInt(t, m, prog, "sum"); got != 496 {
		t.Errorf("sum = %d, want 496", got)
	}
}

func TestLocalAndPrivateArrays(t *testing.T) {
	src := `
private int scratch[16];
shared int out[4];
int work() {
    int tmp[8];
    for (int i = 0; i < 8; i = i + 1) {
        tmp[i] = i * 2;
    }
    int s;
    s = 0;
    for (int i = 0; i < 8; i = i + 1) {
        s = s + tmp[i];
    }
    return s;
}
void main() {
    for (int i = 0; i < 16; i = i + 1) {
        scratch[i] = pid;
    }
    if (pid < 4) {
        out[pid] = work() + scratch[3];
    }
}
`
	m, trace, prog := run(t, src, 4)
	for p := int64(0); p < 4; p++ {
		if got := globalInt(t, m, prog, "out", p); got != 56+p {
			t.Errorf("out[%d] = %d, want %d", p, got, 56+p)
		}
	}
	// Private traffic must not appear in the shared trace: only out[]
	// writes are shared.
	for _, r := range trace {
		vl := prog.Layout.Var("out")
		if r.Addr < vl.Base || r.Addr >= vl.Base+vl.Total {
			t.Fatalf("unexpected shared ref at %#x", r.Addr)
		}
	}
}

func TestArenaAllocationIsPerProcess(t *testing.T) {
	src := `
shared int *slot[8];
shared int ok;
void main() {
    int *p;
    p = allocpp(int);
    *p = pid + 100;
    slot[pid] = p;
    barrier;
    if (pid == 0) {
        ok = 1;
        for (int q = 0; q < nprocs; q = q + 1) {
            if (*slot[q] != q + 100) {
                ok = 0;
            }
        }
    }
}
`
	m, _, prog := run(t, src, 8)
	if got := globalInt(t, m, prog, "ok"); got != 1 {
		t.Errorf("arena values wrong (ok=%d)", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"bounds", `
shared int a[4];
void main() { a[7] = 1; }`, "out of range"},
		{"div0", `
shared int x;
void main() { x = 1 / (x - x); }`, "division by zero"},
		{"null", `
struct S { int v; };
shared struct S *p;
void main() { p->v = 1; }`, "null pointer"},
		// A negative or overflowing count must fail, not move the
		// bump pointer back or wrap it past the region's start.
		{"arena negative count", `
shared int *a;
void main() { a = allocpp(int, 0 - 4); }`, "negative allocation count -4"},
		{"heap count overflow", `
shared int *a;
void main() { if (pid == 0) { a = alloc(int, 2305843009213693952); } }`, "shared heap exhausted"},
		{"arena count overflow", `
shared int *a;
void main() { a = allocpp(int, 2305843009213693952); }`, "process arena exhausted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := core.Compile(tc.src, core.Options{Nprocs: 2, BlockSize: 64})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 2)
			if err != nil {
				t.Fatalf("vm compile: %v", err)
			}
			err = vm.New(bc).Run(nil)
			if err == nil {
				t.Fatalf("expected runtime error containing %q", tc.want)
			}
			re, ok := err.(*vm.RunError)
			if !ok {
				t.Fatalf("error type %T", err)
			}
			if re.Line == 0 {
				t.Errorf("runtime error lacks a source line: %v", err)
			}
			if !contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestTransformedProgramEquivalence is the key compiler-correctness
// property: restructuring must preserve program semantics.
func TestTransformedProgramEquivalence(t *testing.T) {
	src := `
struct Task {
    int work;
    struct Task *next;
};
shared int cell[16];
shared int hits[16];
shared double acc[200][8];
shared int result;
shared struct Task *queues[16];
lock sumlock;

void main() {
    // grouped vectors
    for (int i = 0; i < 50; i = i + 1) {
        cell[pid] = cell[pid] + 1;
        hits[pid] = hits[pid] + 2;
    }
    // transposed matrix
    for (int i = 0; i < 200; i = i + 1) {
        acc[i][pid] = acc[i][pid] + 1.0;
    }
    // indirection target
    struct Task *n;
    n = alloc(struct Task);
    n->work = 0;
    n->next = 0;
    queues[pid] = n;
    barrier;
    for (int i = 0; i < 100; i = i + 1) {
        struct Task *p;
        p = queues[pid];
        while (p != 0) {
            p->work = p->work + 1;
            p = p->next;
        }
    }
    barrier;
    acquire(sumlock);
    result = result + cell[pid] + hits[pid] + queues[pid]->work;
    release(sumlock);
}
`
	const nprocs = 8
	res, err := core.Restructure(src, core.Options{Nprocs: nprocs, BlockSize: 64})
	if err != nil {
		t.Fatalf("restructure: %v", err)
	}
	if len(res.Applied) == 0 {
		t.Fatalf("expected transformations:\n%s", res.Plan)
	}

	mOrig, _, _ := runProgram(t, res.Original, nprocs)
	mTrans, _, _ := runProgram(t, res.Transformed, nprocs)

	// result = sum over procs of (50 + 100 + 100) = 250*8.
	origRes := mOrig.ReadInt(res.Original.Layout.Var("result").Base)
	transRes := mTrans.ReadInt(res.Transformed.Layout.Var("result").Base)
	if origRes != transRes {
		t.Fatalf("semantics changed: original=%d transformed=%d", origRes, transRes)
	}
	if origRes != 250*nprocs {
		t.Errorf("result = %d, want %d", origRes, 250*nprocs)
	}
}
