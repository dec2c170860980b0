package vm

import (
	"fmt"
	"runtime"
	"testing"

	"falseshare/internal/layout"
)

// newMachine compiles src at nprocs and returns a fresh machine.
func newMachine(t *testing.T, src string, nprocs int) *Machine {
	t.Helper()
	prog, err := compileRaw(t, src, nprocs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return New(prog)
}

// probe runs code as one turn of p in a fresh single frame and
// returns the operand stack the turn leaves and its error. A shared
// access ends the turn right after it.
func probe(m *Machine, p *Proc, code ...Instr) ([]int64, error) {
	p.frames = []frame{{fn: &Func{Name: "probe", Code: append(code, Instr{Op: OpHalt})}}}
	p.stack, p.status = p.stack[:0], Running
	err := m.step(p, len(code)+1, nil)
	return p.stack, err
}

// probeLoad is a size-byte load of addr through the machine's checked
// access path.
func probeLoad(m *Machine, p *Proc, addr int64, size int) (int64, error) {
	op := OpLoad4
	if size == 8 {
		op = OpLoad8
	}
	stk, err := probe(m, p, Instr{Op: OpPush, A: addr}, Instr{Op: op})
	if err != nil {
		return 0, err
	}
	return stk[0], nil
}

// probeStore is a size-byte store of v at addr through the machine's
// checked access path.
func probeStore(m *Machine, p *Proc, addr, v int64, size int) error {
	op := OpStore4
	if size == 8 {
		op = OpStore8
	}
	_, err := probe(m, p, Instr{Op: OpPush, A: v}, Instr{Op: OpPush, A: addr}, Instr{Op: op})
	return err
}

func livePages(s *space) int {
	n := 0
	for _, pg := range s.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestStraddlingAccess: 4- and 8-byte stores and loads that straddle
// a page boundary, in shared and in private space, go through the
// machine's checked access path, land little-endian on both pages and
// read back whole.
func TestStraddlingAccess(t *testing.T) {
	m := newMachine(t, "shared int x;\nvoid main() { x = 1; }", 2)
	p := m.procs[0]
	const boundary = 3 * pageSize
	spaces := []struct {
		name string
		tag  int64
		s    *space
	}{
		{"shared", 0, &m.mem},
		{"private", PrivTag, &p.priv},
	}
	for _, sp := range spaces {
		for _, size := range []int{4, 8} {
			for back := int64(1); back < int64(size); back++ {
				t.Run(fmt.Sprintf("%s/size%d/back%d", sp.name, size, back), func(t *testing.T) {
					addr := sp.tag | (boundary - back)
					// A never-written straddle reads zero and creates no page.
					live := livePages(sp.s)
					if v, err := probeLoad(m, p, addr, size); err != nil || v != 0 {
						t.Fatalf("fresh load = %d, %v", v, err)
					}
					if n := livePages(sp.s); n != live {
						t.Fatalf("load created %d pages", n-live)
					}
					want := int64(-0x0123456789abcdef)
					if size == 4 {
						want = -0x12345678
					}
					if err := probeStore(m, p, addr, want, size); err != nil {
						t.Fatal(err)
					}
					if v, err := probeLoad(m, p, addr, size); err != nil || v != want {
						t.Fatalf("load = %#x, %v; want %#x", v, err, want)
					}
					// The bytes split across the two pages little-endian.
					off := boundary - back
					lo := sp.s.pages[off>>pageShift][pageSize-back:]
					hi := sp.s.pages[off>>pageShift+1][:int64(size)-back]
					var buf [8]byte
					wr(buf[:], want, size)
					got := append(append([]byte(nil), lo...), hi...)
					if string(got) != string(buf[:size]) {
						t.Fatalf("bytes % x, want % x", got, buf[:size])
					}
					sp.s.clear(off, int64(size)) // next case starts from zeros
				})
			}
		}
	}
}

// TestUntouchedPagesReadZero: the heap, the arenas and the last word
// of shared space are never written, so they have no pages and read
// zero through every accessor.
func TestUntouchedPagesReadZero(t *testing.T) {
	m := newMachine(t, "shared int x;\nshared double d;\nvoid main() { if (pid == 0) { x = 7; d = 2.5; } }", 4)
	if err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	prog := m.prog
	for _, addr := range []int64{prog.HeapBase, prog.ArenaBase, prog.ArenaBase + 3*prog.ArenaSize, m.MemSize() - 8} {
		if v := m.ReadInt(addr); v != 0 {
			t.Errorf("ReadInt(%#x) = %d", addr, v)
		}
		if v := m.ReadDouble(addr); v != 0 {
			t.Errorf("ReadDouble(%#x) = %g", addr, v)
		}
		if v := m.ReadPtr(addr); v != 0 {
			t.Errorf("ReadPtr(%#x) = %#x", addr, v)
		}
	}
	if n := livePages(&m.mem); n != 1 {
		t.Errorf("%d shared pages live, want 1 (the globals)", n)
	}
}

// TestLocalArrayZeroedOnReuse: a local array spanning several private
// pages is fresh, zeroed storage on every call, even when the second
// call reuses the pages the first one wrote.
func TestLocalArrayZeroedOnReuse(t *testing.T) {
	src := `
shared int out[2];
int fill(int k) {
    int a[3000];
    int s;
    s = 0;
    for (int i = 0; i < 3000; i = i + 1) {
        s = s + a[i];
        a[i] = k;
    }
    return s;
}
void main() {
    if (pid == 0) {
        out[0] = fill(7);
        out[1] = fill(9);
    }
}
`
	m := newMachine(t, src, 1)
	if err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		// out is the only shared global, so it starts at GlobalBase.
		if v := m.ReadInt(layout.GlobalBase + 4*int64(i)); v != 0 {
			t.Errorf("call %d saw %d in its fresh local array", i+1, v)
		}
	}
	if n := livePages(&m.procs[0].priv); n < 3 {
		t.Errorf("%d private pages live; the 12000-byte array should span at least 3", n)
	}
}

// TestAccessErrors: the paged space keeps every bounds, null-page and
// lock-address check, with the exact messages of the flat image.
func TestAccessErrors(t *testing.T) {
	const far = 1 << 24 // elements past the heap: beyond the 4-proc space
	cases := []struct {
		name, src string
		want      func(p *Program) string
	}{
		{"store out of range", `
shared int *a;
void main() { if (pid == 0) { a = alloc(int); a[16777216] = 1; } }`,
			func(p *Program) string { return fmt.Sprintf("shared store out of range %#x", p.HeapBase+4*far) }},
		{"load out of range", `
shared int *a;
shared int x;
void main() { if (pid == 0) { a = alloc(int); x = a[16777216]; } }`,
			func(p *Program) string { return fmt.Sprintf("shared load out of range %#x", p.HeapBase+4*far) }},
		{"null page", `
struct S { int u; int v; };
shared struct S *p;
void main() { p->v = 1; }`,
			func(*Program) string { return "null pointer dereference (address 0x4)" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, tc.src, 4)
			err := m.Run(nil)
			re, ok := err.(*RunError)
			if !ok {
				t.Fatalf("want *RunError, got %T: %v", err, err)
			}
			if want := tc.want(m.prog); re.Msg != want {
				t.Errorf("message %q, want %q", re.Msg, want)
			}
		})
	}

	// Checked subscripts keep compiled programs from reaching a bad
	// lock or private address, so drive those checks directly.
	m := newMachine(t, "shared int x;\nvoid main() { x = 1; }", 2)
	p := m.procs[0]
	end, priv := m.MemSize(), p.priv.size
	for _, addr := range []int64{0, -8, end - 2, end, PrivTag | 16} {
		for _, op := range []Op{OpLockAcq, OpLockRel} {
			_, err := probe(m, p, Instr{Op: OpPush, A: addr}, Instr{Op: op})
			want := fmt.Sprintf("invalid lock address %#x", addr)
			if re, ok := err.(*RunError); !ok || re.Msg != want {
				t.Errorf("%s at %#x: %v, want %q", op, addr, err, want)
			}
		}
	}
	for _, off := range []int64{priv - 2, priv} {
		want := fmt.Sprintf("private access out of range %#x", off)
		if _, err := probeLoad(m, p, PrivTag|off, 4); err == nil || err.(*RunError).Msg != want {
			t.Errorf("private load at %#x: %v, want %q", off, err, want)
		}
		if err := probeStore(m, p, PrivTag|off, 1, 4); err == nil || err.(*RunError).Msg != want {
			t.Errorf("private store at %#x: %v, want %q", off, err, want)
		}
	}
}

// TestNewAllocatesDirectoryOnly is the deterministic memory gate: a
// 56-process machine reserves about 128 MiB of shared and private
// space, but vm.New allocates only the page directories and the
// per-process frames, well under 1 MiB.
func TestNewAllocatesDirectoryOnly(t *testing.T) {
	prog, err := compileRaw(t, "shared int x[56];\nvoid main() { x[pid] = pid; }", 56)
	if err != nil {
		t.Fatal(err)
	}
	reserved := prog.SharedEnd + 56*prog.PrivSize
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(prog)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("vm.New allocated %d bytes for %d reserved", got, reserved)
	if got >= 1<<20 {
		t.Errorf("vm.New allocated %d bytes for %d reserved; want < 1 MiB", got, reserved)
	}
	if err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
}
