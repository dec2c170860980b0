package vm

import (
	"context"
	"fmt"
	"math"
	"sort"

	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
)

// Ref is one shared-memory reference in the trace.
type Ref struct {
	Proc  int
	Addr  int64
	Size  int8
	Write bool
}

// nullPage is the unmapped low address range; dereferences into it are
// reported as null-pointer errors.
const nullPage = 0x1000

// defaultMaxInstrs is the per-process step budget when
// Machine.MaxInstrs is zero.
const defaultMaxInstrs int64 = 1e9

// Status is a process's scheduling state.
type Status int

const (
	Running Status = iota
	AtBarrier
	Done
)

type frame struct {
	fn       *Func
	pc       int
	locals   []int64
	privMark int64
}

// Proc is one SPMD process.
type Proc struct {
	ID     int
	frames []frame
	stack  []int64
	priv   space
	bump   int64 // private-space bump pointer (local arrays)
	status Status

	// Instrs counts executed instructions (the KSR model's CPU work).
	Instrs int64
	// Spins counts failed lock acquisition attempts.
	Spins int64
	// Refs counts emitted shared references.
	Refs int64
}

type allocEntry struct {
	start, end, stride int64
}

// Machine executes a compiled program with nprocs processes.
type Machine struct {
	prog   *Program
	nprocs int
	mem    space
	procs  []*Proc

	heapPtr  int64
	arenaPtr []int64
	// heapAllocs and arenaAllocs record element strides for pointer
	// indexing (padded heap blocks keep their stride here).
	heapAllocs  []allocEntry
	arenaAllocs [][]allocEntry

	// MaxInstrs is the step budget: it bounds per-process execution so
	// a non-terminating program (a restructurer bug, an adversarial
	// input) fails with "step budget exceeded" instead of hanging the
	// whole sweep. Zero means defaultMaxInstrs (1e9).
	MaxInstrs int64

	// OnBarrier, when set, is invoked at every barrier release — the
	// execution-time model uses it to account work phase by phase.
	OnBarrier func()

	// ctx, when set, cancels the run cooperatively: the scheduler
	// checks it periodically and Run returns its error.
	ctx context.Context

	barrierCount int64
}

// RunError is a runtime error with source location.
type RunError struct {
	Proc int
	Fn   string
	Line int
	Msg  string
}

func (e *RunError) Error() string {
	return fmt.Sprintf("vm: proc %d: %s:%d: %s", e.Proc, e.Fn, e.Line, e.Msg)
}

// New creates a machine for the program's configured process count.
func New(prog *Program) *Machine {
	n := prog.Nprocs
	m := &Machine{
		prog:        prog,
		nprocs:      n,
		mem:         newSpace(prog.SharedEnd),
		heapPtr:     prog.HeapBase,
		arenaPtr:    make([]int64, n),
		arenaAllocs: make([][]allocEntry, n),
		MaxInstrs:   defaultMaxInstrs,
	}
	for p := 0; p < n; p++ {
		m.arenaPtr[p] = prog.ArenaBase + int64(p)*prog.ArenaSize
	}
	for p := 0; p < n; p++ {
		main := prog.Funcs[prog.Main]
		proc := &Proc{
			ID:   p,
			priv: newSpace(prog.PrivSize),
			bump: prog.PrivSize / 2, // local arrays grow above private globals
		}
		proc.frames = []frame{{fn: main, locals: make([]int64, main.NLocals)}}
		m.procs = append(m.procs, proc)
	}
	return m
}

// SetContext makes the run cancellable: the scheduler polls ctx
// between rounds and Run returns ctx.Err() once it is cancelled. The
// experiment pool routes per-job deadlines and Ctrl-C through here.
func (m *Machine) SetContext(ctx context.Context) { m.ctx = ctx }

// Procs exposes the per-process counters after a run.
func (m *Machine) Procs() []*Proc { return m.procs }

// MemSize returns the size in bytes of the shared address space: an
// n-byte access at addr is in range when addr+n <= MemSize().
func (m *Machine) MemSize() int64 { return m.mem.size }

// Barriers returns the number of barrier episodes executed.
func (m *Machine) Barriers() int64 { return m.barrierCount }

// TotalInstrs sums executed instructions across processes.
func (m *Machine) TotalInstrs() int64 {
	var n int64
	for _, p := range m.procs {
		n += p.Instrs
	}
	return n
}

// TotalRefs sums emitted shared references across processes.
func (m *Machine) TotalRefs() int64 {
	var n int64
	for _, p := range m.procs {
		n += p.Refs
	}
	return n
}

// TotalSpins sums failed lock acquisitions across processes.
func (m *Machine) TotalSpins() int64 {
	var n int64
	for _, p := range m.procs {
		n += p.Spins
	}
	return n
}

// ReadInt reads a 4-byte integer from shared memory (for tests).
func (m *Machine) ReadInt(addr int64) int64 { return m.peek(addr, 4) }

// ReadDouble reads an 8-byte double from shared memory (for tests).
func (m *Machine) ReadDouble(addr int64) float64 { return pf(m.peek(addr, 8)) }

// ReadPtr reads an 8-byte pointer word from shared memory.
func (m *Machine) ReadPtr(addr int64) int64 { return m.peek(addr, 8) }

// peek reads a word for the accessors above. Callers bound-check
// against MemSize; an address outside the space panics.
func (m *Machine) peek(addr int64, size int) int64 {
	if addr < 0 || addr > m.mem.size-int64(size) {
		panic(fmt.Sprintf("vm: %d-byte read at %#x outside shared space of %#x bytes", size, addr, m.mem.size))
	}
	return m.mem.load(addr, size)
}

// AllocSpan returns the shared-heap allocation containing addr —
// its start, end and element stride — or ok=false when addr lies in
// no recorded allocation. The translation validator uses it to
// enumerate the heap elements behind a shared pointer global.
func (m *Machine) AllocSpan(addr int64) (start, end, stride int64, ok bool) {
	for _, e := range m.heapAllocs {
		if addr >= e.start && addr < e.end {
			return e.start, e.end, e.stride, true
		}
	}
	return 0, 0, 0, false
}

// Span describes one recorded allocation: [Start, End) with element
// stride Stride (padded heap blocks keep the padded stride).
type Span struct {
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Stride int64 `json:"stride"`
}

// AllocSpans returns every shared-heap allocation in allocation
// order. The attribution layer uses it to freeze a complete
// address→object map after a run, covering spans no miss happened to
// touch.
func (m *Machine) AllocSpans() []Span {
	out := make([]Span, len(m.heapAllocs))
	for i, e := range m.heapAllocs {
		out[i] = Span{Start: e.start, End: e.end, Stride: e.stride}
	}
	return out
}

// Run executes the program to completion, passing every shared memory
// reference to sink (which may be nil). The scheduler grants turns
// round-robin; each turn advances a process until it issues one shared
// reference, reaches a barrier, finishes, or exhausts its slice of
// private computation.
func (m *Machine) Run(sink func(Ref)) error {
	sp := obs.Begin("vm.run")
	err := m.run(sink)
	if sp != nil {
		sp.Set("procs", int64(m.nprocs))
		sp.Set("instrs", m.TotalInstrs())
		sp.Set("refs", m.TotalRefs())
		sp.Set("spins", m.TotalSpins())
		sp.Set("barriers", m.barrierCount)
	}
	sp.End()
	return err
}

func (m *Machine) run(sink func(Ref)) error {
	if err := faultinject.Fire(m.ctx, "vm.run", ""); err != nil {
		return err
	}
	const slice = 20000 // private instructions per turn
	// ctx poll period, in scheduler rounds: frequent enough that a
	// cancelled sweep drains in microseconds, rare enough that the
	// mutex inside ctx.Err() stays invisible next to simulation cost.
	const pollEvery = 256
	for round := 0; ; round++ {
		if m.ctx != nil && round%pollEvery == 0 {
			if err := m.ctx.Err(); err != nil {
				return err
			}
		}
		anyRunning := false
		atBarrier := 0
		done := 0
		for _, p := range m.procs {
			switch p.status {
			case Done:
				done++
				continue
			case AtBarrier:
				atBarrier++
				continue
			}
			anyRunning = true
			if err := m.step(p, slice, sink); err != nil {
				return err
			}
		}
		if done == m.nprocs {
			return nil
		}
		if !anyRunning {
			// Everyone is waiting: release the barrier if every live
			// process reached it; otherwise we are deadlocked.
			if atBarrier > 0 && atBarrier+done == m.nprocs {
				for _, p := range m.procs {
					if p.status == AtBarrier {
						p.status = Running
					}
				}
				m.barrierCount++
				if m.OnBarrier != nil {
					m.OnBarrier()
				}
				continue
			}
			return &RunError{Msg: "deadlock: no runnable process"}
		}
	}
}

// step advances one process until it emits a shared reference, blocks,
// finishes, or runs out of its private-instruction slice.
//
// The current frame and its code stay in locals; only a call or a
// return, which change the frame stack, reload them.
func (m *Machine) step(p *Proc, slice int, sink func(Ref)) error {
	budget := m.MaxInstrs
	if budget <= 0 {
		budget = defaultMaxInstrs
	}
	f := &p.frames[len(p.frames)-1]
	code := f.fn.Code
	for i := 0; i < slice; i++ {
		if f.pc >= len(code) {
			return m.fail(p, f, "fell off end of code")
		}
		in := code[f.pc]
		p.Instrs++
		if p.Instrs > budget {
			return m.fail(p, f, "step budget exceeded (%d instrs) at pc=%d (runaway program?)", p.Instrs-1, f.pc)
		}

		emitted, blocked, err := m.exec(p, f, in, sink)
		if err != nil {
			return err
		}
		if p.status == Done || p.status == AtBarrier {
			return nil
		}
		if blocked {
			return nil // lock spin: yield after the read
		}
		if emitted {
			return nil
		}
		switch in.Op {
		case OpCall, OpRet, OpRetV:
			f = &p.frames[len(p.frames)-1]
			code = f.fn.Code
		}
	}
	return nil
}

func (m *Machine) fail(p *Proc, f *frame, format string, args ...any) error {
	line := 0
	if f.pc < len(f.fn.Code) {
		line = f.fn.Code[f.pc].Line
	}
	return &RunError{Proc: p.ID, Fn: f.fn.Name, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *Proc) push(v int64) { p.stack = append(p.stack, v) }
func (p *Proc) pop() int64 {
	v := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	return v
}
func (p *Proc) top() int64 { return p.stack[len(p.stack)-1] }

// exec executes one instruction. It returns emitted=true when a shared
// reference was issued and blocked=true when the process must yield
// without advancing (lock spin).
func (m *Machine) exec(p *Proc, f *frame, in Instr, sink func(Ref)) (emitted, blocked bool, err error) {
	switch in.Op {
	case OpNop:
	case OpPush:
		p.push(in.A)
	case OpPushPid:
		p.push(int64(p.ID))
	case OpPushNP:
		p.push(int64(m.nprocs))
	case OpLoadLocal:
		p.push(f.locals[in.A])
	case OpStoreLocal:
		f.locals[in.A] = p.pop()
	case OpPop:
		p.pop()

	case OpLoad4:
		addr := p.pop()
		v, e := m.load(p, f, addr, 4, sink, &emitted)
		if e != nil {
			return false, false, e
		}
		p.push(v)
	case OpLoad8:
		addr := p.pop()
		v, e := m.load(p, f, addr, 8, sink, &emitted)
		if e != nil {
			return false, false, e
		}
		p.push(v)
	case OpStore4:
		addr := p.pop()
		v := p.pop()
		if e := m.store(p, f, addr, v, 4, sink, &emitted); e != nil {
			return false, false, e
		}
	case OpStore8:
		addr := p.pop()
		v := p.pop()
		if e := m.store(p, f, addr, v, 8, sink, &emitted); e != nil {
			return false, false, e
		}

	case OpIndexPtr:
		idx := p.pop()
		ptr := p.pop()
		if ptr == 0 {
			return false, false, m.fail(p, f, "null pointer dereference")
		}
		stride := m.strideOf(ptr, in.A)
		p.push(ptr + idx*stride)

	case OpCheck:
		idx := p.top()
		if idx < 0 || idx >= in.A {
			return false, false, m.fail(p, f, "index %d out of range [0,%d)", idx, in.A)
		}

	case OpAddI:
		b := p.pop()
		p.push(p.pop() + b)
	case OpSubI:
		b := p.pop()
		p.push(p.pop() - b)
	case OpMulI:
		b := p.pop()
		p.push(p.pop() * b)
	case OpDivI:
		b := p.pop()
		if b == 0 {
			return false, false, m.fail(p, f, "integer division by zero")
		}
		p.push(p.pop() / b)
	case OpModI:
		b := p.pop()
		if b == 0 {
			return false, false, m.fail(p, f, "integer modulo by zero")
		}
		p.push(p.pop() % b)
	case OpNegI:
		p.push(-p.pop())

	case OpAddF:
		b := pf(p.pop())
		p.push(fp(pf(p.pop()) + b))
	case OpSubF:
		b := pf(p.pop())
		p.push(fp(pf(p.pop()) - b))
	case OpMulF:
		b := pf(p.pop())
		p.push(fp(pf(p.pop()) * b))
	case OpDivF:
		b := pf(p.pop())
		p.push(fp(pf(p.pop()) / b))
	case OpNegF:
		p.push(fp(-pf(p.pop())))
	case OpI2F:
		p.push(fp(float64(p.pop())))

	case OpEqI:
		b := p.pop()
		p.push(b2i(p.pop() == b))
	case OpNeI:
		b := p.pop()
		p.push(b2i(p.pop() != b))
	case OpLtI:
		b := p.pop()
		p.push(b2i(p.pop() < b))
	case OpLeI:
		b := p.pop()
		p.push(b2i(p.pop() <= b))
	case OpGtI:
		b := p.pop()
		p.push(b2i(p.pop() > b))
	case OpGeI:
		b := p.pop()
		p.push(b2i(p.pop() >= b))
	case OpEqF:
		b := pf(p.pop())
		p.push(b2i(pf(p.pop()) == b))
	case OpNeF:
		b := pf(p.pop())
		p.push(b2i(pf(p.pop()) != b))
	case OpLtF:
		b := pf(p.pop())
		p.push(b2i(pf(p.pop()) < b))
	case OpLeF:
		b := pf(p.pop())
		p.push(b2i(pf(p.pop()) <= b))
	case OpGtF:
		b := pf(p.pop())
		p.push(b2i(pf(p.pop()) > b))
	case OpGeF:
		b := pf(p.pop())
		p.push(b2i(pf(p.pop()) >= b))
	case OpNot:
		p.push(b2i(p.pop() == 0))

	case OpJmp:
		f.pc = int(in.A)
		return false, false, nil
	case OpJz:
		if p.pop() == 0 {
			f.pc = int(in.A)
			return false, false, nil
		}

	case OpCall:
		callee := m.prog.Funcs[in.A]
		nf := frame{fn: callee, locals: make([]int64, callee.NLocals), privMark: p.bump}
		for i := callee.NParams - 1; i >= 0; i-- {
			nf.locals[i] = p.pop()
		}
		f.pc++
		p.frames = append(p.frames, nf)
		return false, false, nil
	case OpRet, OpRetV:
		var v int64
		if in.Op == OpRetV {
			v = p.pop()
		}
		p.bump = f.privMark
		p.frames = p.frames[:len(p.frames)-1]
		if len(p.frames) == 0 {
			p.status = Done
			return false, false, nil
		}
		if in.Op == OpRetV {
			p.push(v)
		}
		return false, false, nil
	case OpHalt:
		p.status = Done
		return false, false, nil

	case OpAllocHeap:
		stride := in.A
		count := int64(1)
		align := int64(8)
		if in.B&1 != 0 {
			count = p.pop()
		}
		if a := in.B >> 1; a > align {
			align = a
		}
		if count < 0 {
			return false, false, m.fail(p, f, "negative allocation count %d", count)
		}
		m.heapPtr = align64(m.heapPtr, align)
		addr := m.heapPtr
		total := stride * count
		if addr+total > m.prog.ArenaBase {
			return false, false, m.fail(p, f, "shared heap exhausted")
		}
		m.heapPtr += total
		m.heapAllocs = append(m.heapAllocs, allocEntry{addr, addr + total, stride})
		p.push(addr)

	case OpAllocArena:
		stride := in.A
		count := int64(1)
		if in.B&1 != 0 {
			count = p.pop()
		}
		base := m.arenaPtr[p.ID]
		base = align64(base, 8)
		total := stride * count
		limit := m.prog.ArenaBase + int64(p.ID+1)*m.prog.ArenaSize
		if base+total > limit {
			return false, false, m.fail(p, f, "process arena exhausted")
		}
		m.arenaPtr[p.ID] = base + total
		m.arenaAllocs[p.ID] = append(m.arenaAllocs[p.ID], allocEntry{base, base + total, stride})
		p.push(base)

	case OpBarrier:
		p.status = AtBarrier
		f.pc++
		return false, false, nil

	case OpLockAcq:
		addr := p.top()
		if addr&PrivTag != 0 || addr <= 0 || addr+4 > m.mem.size {
			return false, false, m.fail(p, f, "invalid lock address %#x", addr)
		}
		v := m.mem.load(addr, 4)
		m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: false})
		if v != 0 {
			// Held: spin. Keep the address on the stack and retry this
			// instruction on the next turn.
			p.Spins++
			return true, true, nil
		}
		p.pop()
		m.mem.store(addr, 1, 4)
		m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: true})
		emitted = true

	case OpLockRel:
		addr := p.pop()
		if addr&PrivTag != 0 || addr <= 0 || addr+4 > m.mem.size {
			return false, false, m.fail(p, f, "invalid lock address %#x", addr)
		}
		m.mem.store(addr, 0, 4)
		m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: true})
		emitted = true

	case OpLocalArr:
		size := align64(in.A, 8)
		base := p.bump
		if base+size > p.priv.size {
			return false, false, m.fail(p, f, "private space exhausted")
		}
		p.bump += size
		// Zero the array (fresh storage per execution).
		p.priv.clear(base, size)
		f.locals[in.B] = base | PrivTag

	default:
		return false, false, m.fail(p, f, "bad opcode %s", in.Op)
	}
	f.pc++
	return emitted, false, nil
}

func (m *Machine) emit(p *Proc, sink func(Ref), r Ref) {
	p.Refs++
	if sink != nil {
		sink(r)
	}
}

// load performs a 4- or 8-byte load, tracing shared accesses.
func (m *Machine) load(p *Proc, f *frame, addr int64, size int, sink func(Ref), emitted *bool) (int64, error) {
	if addr&PrivTag != 0 {
		off := addr &^ PrivTag
		if off < 0 || off+int64(size) > p.priv.size {
			return 0, m.fail(p, f, "private access out of range %#x", off)
		}
		return p.priv.load(off, size), nil
	}
	if addr >= 0 && addr < nullPage {
		return 0, m.fail(p, f, "null pointer dereference (address %#x)", addr)
	}
	if addr <= 0 || addr+int64(size) > m.mem.size {
		return 0, m.fail(p, f, "shared load out of range %#x", addr)
	}
	m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: int8(size), Write: false})
	*emitted = true
	return m.mem.load(addr, size), nil
}

func (m *Machine) store(p *Proc, f *frame, addr, v int64, size int, sink func(Ref), emitted *bool) error {
	if addr&PrivTag != 0 {
		off := addr &^ PrivTag
		if off < 0 || off+int64(size) > p.priv.size {
			return m.fail(p, f, "private access out of range %#x", off)
		}
		p.priv.store(off, v, size)
		return nil
	}
	if addr >= 0 && addr < nullPage {
		return m.fail(p, f, "null pointer dereference (address %#x)", addr)
	}
	if addr <= 0 || addr+int64(size) > m.mem.size {
		return m.fail(p, f, "shared store out of range %#x", addr)
	}
	m.mem.store(addr, v, size)
	m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: int8(size), Write: true})
	*emitted = true
	return nil
}

// strideOf resolves the element stride of the allocation containing
// addr (fallback: the static element size).
func (m *Machine) strideOf(addr, fallback int64) int64 {
	var table []allocEntry
	if addr >= m.prog.ArenaBase {
		pid := (addr - m.prog.ArenaBase) / m.prog.ArenaSize
		if pid >= 0 && int(pid) < m.nprocs {
			table = m.arenaAllocs[pid]
		}
	} else if addr >= m.prog.HeapBase {
		table = m.heapAllocs
	} else {
		return fallback // pointers into globals do not occur, but be safe
	}
	i := sort.Search(len(table), func(i int) bool { return table[i].start > addr })
	if i > 0 && addr < table[i-1].end {
		return table[i-1].stride
	}
	return fallback
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func pf(v int64) float64 { return math.Float64frombits(uint64(v)) }
func fp(f float64) int64 { return int64(math.Float64bits(f)) }

func align64(v, a int64) int64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) / a * a
}
