package vm

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// frame is one activation. Its locals are locals[base:base+NLocals]
// of the process's locals stack.
type frame struct {
	fn       *Func
	pc       int
	base     int
	privMark int64
}

// Proc is one SPMD process.
type Proc struct {
	ID     int
	frames []frame
	locals []int64 // every frame's locals, innermost last
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
		proc.frames = []frame{{fn: main}}
		proc.locals = make([]int64, main.NLocals)
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
// The whole turn runs in one loop over register-style state: pc, the
// current frame's code and locals, the operand stack (stk) and the
// instruction count (n) live in Go locals. They are written back to
// f.pc, p.stack and p.Instrs (p.save) at every exit, before anything
// else can look at them: before a shared reference reaches the sink,
// when the process reaches a barrier, spins on a lock or finishes,
// before a failure is built, and when the slice ends. A call stores
// the caller's return pc in its frame and a return reloads it, so
// frames hold no other live state mid-turn. Nothing outside this loop
// reads the process in between; OnBarrier and the execution-time
// model read counters only between turns.
func (m *Machine) step(p *Proc, slice int, sink func(Ref)) error {
	budget := m.MaxInstrs
	if budget <= 0 {
		budget = defaultMaxInstrs
	}
	f := &p.frames[len(p.frames)-1]
	code, pc, locals := f.fn.Code, f.pc, p.locals[f.base:]
	stk, n := p.stack, p.Instrs
	var msg string // set before goto fail
	// The loop runs until the slice ends or the budget is reached:
	// below lim, no instruction can exceed either.
	end := n + int64(slice)
	for lim := min(end, budget); n < lim; {
		if pc >= len(code) {
			msg = "fell off end of code"
			goto fail
		}
		in := &code[pc]
		n++

		switch in.Op {
		case OpNop:
		case OpPush:
			stk = append(stk, in.A)
		case OpPushPid:
			stk = append(stk, int64(p.ID))
		case OpPushNP:
			stk = append(stk, int64(m.nprocs))
		case OpLoadLocal:
			stk = append(stk, locals[in.A])
		case OpStoreLocal:
			locals[in.A] = stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		case OpPop:
			stk = stk[:len(stk)-1]

		case OpLoad4, OpLoad8:
			size := 4 << (in.Op - OpLoad4)
			top := len(stk) - 1
			addr := stk[top]
			if addr&PrivTag != 0 {
				off := addr &^ PrivTag
				if off < 0 || off+int64(size) > p.priv.size {
					msg = fmt.Sprintf("private access out of range %#x", off)
					goto fail
				}
				stk[top] = p.priv.load(off, size)
				break
			}
			if addr < nullPage || addr+int64(size) > m.mem.size {
				msg = sharedFault(addr, "load")
				goto fail
			}
			stk[top] = m.mem.load(addr, size)
			p.save(f, pc+1, stk, n)
			m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: int8(size), Write: false})
			return nil
		case OpStore4, OpStore8:
			size := 4 << (in.Op - OpStore4)
			addr, v := stk[len(stk)-1], stk[len(stk)-2]
			stk = stk[:len(stk)-2]
			if addr&PrivTag != 0 {
				off := addr &^ PrivTag
				if off < 0 || off+int64(size) > p.priv.size {
					msg = fmt.Sprintf("private access out of range %#x", off)
					goto fail
				}
				p.priv.store(off, v, size)
				break
			}
			if addr < nullPage || addr+int64(size) > m.mem.size {
				msg = sharedFault(addr, "store")
				goto fail
			}
			m.mem.store(addr, v, size)
			p.save(f, pc+1, stk, n)
			m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: int8(size), Write: true})
			return nil

		case OpIndexPtr:
			idx, ptr := stk[len(stk)-1], stk[len(stk)-2]
			if ptr == 0 {
				msg = "null pointer dereference"
				goto fail
			}
			stk = stk[:len(stk)-1]
			stk[len(stk)-1] = ptr + idx*m.strideOf(ptr, in.A)

		case OpCheck:
			if idx := stk[len(stk)-1]; idx < 0 || idx >= in.A {
				msg = fmt.Sprintf("index %d out of range [0,%d)", idx, in.A)
				goto fail
			}

		case OpAddI:
			stk[len(stk)-2] += stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		case OpSubI:
			stk[len(stk)-2] -= stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		case OpMulI:
			stk[len(stk)-2] *= stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		case OpDivI:
			b := stk[len(stk)-1]
			if b == 0 {
				msg = "integer division by zero"
				goto fail
			}
			stk = stk[:len(stk)-1]
			stk[len(stk)-1] /= b
		case OpModI:
			b := stk[len(stk)-1]
			if b == 0 {
				msg = "integer modulo by zero"
				goto fail
			}
			stk = stk[:len(stk)-1]
			stk[len(stk)-1] %= b
		case OpNegI:
			stk[len(stk)-1] = -stk[len(stk)-1]

		case OpAddF:
			stk[len(stk)-2] = fp(pf(stk[len(stk)-2]) + pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpSubF:
			stk[len(stk)-2] = fp(pf(stk[len(stk)-2]) - pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpMulF:
			stk[len(stk)-2] = fp(pf(stk[len(stk)-2]) * pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpDivF:
			stk[len(stk)-2] = fp(pf(stk[len(stk)-2]) / pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpNegF:
			stk[len(stk)-1] = fp(-pf(stk[len(stk)-1]))
		case OpI2F:
			stk[len(stk)-1] = fp(float64(stk[len(stk)-1]))

		case OpEqI:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] == stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case OpNeI:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] != stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case OpLtI:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] < stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case OpLeI:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] <= stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case OpGtI:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] > stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case OpGeI:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] >= stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case OpEqF:
			stk[len(stk)-2] = b2i(pf(stk[len(stk)-2]) == pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpNeF:
			stk[len(stk)-2] = b2i(pf(stk[len(stk)-2]) != pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpLtF:
			stk[len(stk)-2] = b2i(pf(stk[len(stk)-2]) < pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpLeF:
			stk[len(stk)-2] = b2i(pf(stk[len(stk)-2]) <= pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpGtF:
			stk[len(stk)-2] = b2i(pf(stk[len(stk)-2]) > pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpGeF:
			stk[len(stk)-2] = b2i(pf(stk[len(stk)-2]) >= pf(stk[len(stk)-1]))
			stk = stk[:len(stk)-1]
		case OpNot:
			stk[len(stk)-1] = b2i(stk[len(stk)-1] == 0)

		case OpJmp:
			pc = int(in.A)
			continue
		case OpJz:
			v := stk[len(stk)-1]
			stk = stk[:len(stk)-1]
			if v == 0 {
				pc = int(in.A)
				continue
			}

		case OpCall:
			// The callee's locals are pushed zeroed on the process's
			// locals stack; its parameters come off the operand stack
			// in push order.
			callee := m.prog.Funcs[in.A]
			f.pc = pc + 1
			base := len(p.locals)
			p.locals = slices.Grow(p.locals, callee.NLocals)[:base+callee.NLocals]
			clear(p.locals[base:])
			np := len(stk) - callee.NParams
			copy(p.locals[base:], stk[np:])
			stk = stk[:np]
			p.frames = append(p.frames, frame{fn: callee, base: base, privMark: p.bump})
			f = &p.frames[len(p.frames)-1]
			code, pc, locals = callee.Code, 0, p.locals[base:]
			continue
		case OpRet, OpRetV:
			var v int64
			if in.Op == OpRetV {
				v = stk[len(stk)-1]
				stk = stk[:len(stk)-1]
			}
			p.bump = f.privMark
			p.locals = p.locals[:f.base]
			p.frames = p.frames[:len(p.frames)-1]
			if len(p.frames) == 0 {
				p.stack, p.Instrs = stk, n
				p.status = Done
				return nil
			}
			if in.Op == OpRetV {
				stk = append(stk, v)
			}
			f = &p.frames[len(p.frames)-1]
			code, pc, locals = f.fn.Code, f.pc, p.locals[f.base:]
			continue
		case OpHalt:
			p.save(f, pc, stk, n)
			p.status = Done
			return nil

		case OpAllocHeap:
			stride, count := in.A, int64(1)
			if in.B&1 != 0 {
				count = stk[len(stk)-1]
				stk = stk[:len(stk)-1]
			}
			align := max(in.B>>1, 8)
			addr := align64(m.heapPtr, align)
			if msg = allocFault(addr, stride, count, m.prog.ArenaBase, "shared heap exhausted"); msg != "" {
				goto fail
			}
			m.heapPtr = addr + stride*count
			m.heapAllocs = append(m.heapAllocs, allocEntry{addr, m.heapPtr, stride})
			stk = append(stk, addr)

		case OpAllocArena:
			stride, count := in.A, int64(1)
			if in.B&1 != 0 {
				count = stk[len(stk)-1]
				stk = stk[:len(stk)-1]
			}
			base := align64(m.arenaPtr[p.ID], 8)
			limit := m.prog.ArenaBase + int64(p.ID+1)*m.prog.ArenaSize
			if msg = allocFault(base, stride, count, limit, "process arena exhausted"); msg != "" {
				goto fail
			}
			m.arenaPtr[p.ID] = base + stride*count
			m.arenaAllocs[p.ID] = append(m.arenaAllocs[p.ID], allocEntry{base, m.arenaPtr[p.ID], stride})
			stk = append(stk, base)

		case OpBarrier:
			p.save(f, pc+1, stk, n)
			p.status = AtBarrier
			return nil

		case OpLockAcq:
			addr := stk[len(stk)-1]
			if msg = m.lockFault(addr); msg != "" {
				goto fail
			}
			if m.mem.load(addr, 4) != 0 {
				// Held: spin. Keep the address on the stack and retry this
				// instruction on the next turn.
				p.save(f, pc, stk, n)
				m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: false})
				p.Spins++
				return nil
			}
			stk = stk[:len(stk)-1]
			m.mem.store(addr, 1, 4)
			p.save(f, pc+1, stk, n)
			m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: false})
			m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: true})
			return nil

		case OpLockRel:
			addr := stk[len(stk)-1]
			stk = stk[:len(stk)-1]
			if msg = m.lockFault(addr); msg != "" {
				goto fail
			}
			m.mem.store(addr, 0, 4)
			p.save(f, pc+1, stk, n)
			m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: true})
			return nil

		case OpLocalArr:
			size := align64(in.A, 8)
			base := p.bump
			if base+size > p.priv.size {
				msg = "private space exhausted"
				goto fail
			}
			p.bump += size
			// Zero the array (fresh storage per execution).
			p.priv.clear(base, size)
			locals[in.B] = base | PrivTag

		default:
			msg = fmt.Sprintf("bad opcode %s", in.Op)
			goto fail
		}
		pc++
	}
	if n < end {
		// The budget ran out inside the slice: the next instruction
		// is the one that exceeds it.
		if pc >= len(code) {
			msg = "fell off end of code"
			goto fail
		}
		n++
		msg = fmt.Sprintf("step budget exceeded (%d instrs) at pc=%d (runaway program?)", n-1, pc)
		goto fail
	}
	p.save(f, pc, stk, n)
	return nil

fail:
	p.save(f, pc, stk, n)
	return m.fail(p, f, msg)
}

// save writes a turn's register state back to the process.
func (p *Proc) save(f *frame, pc int, stk []int64, n int64) {
	f.pc, p.stack, p.Instrs = pc, stk, n
}

// fail reports msg at the frame's saved pc.
func (m *Machine) fail(p *Proc, f *frame, msg string) error {
	line := 0
	if f.pc < len(f.fn.Code) {
		line = int(f.fn.Code[f.pc].Line)
	}
	return &RunError{Proc: p.ID, Fn: f.fn.Name, Line: line, Msg: msg}
}

// sharedFault returns the error message for a shared load or store at
// addr that failed the range check: below nullPage or past the space.
func sharedFault(addr int64, what string) string {
	if addr >= 0 && addr < nullPage {
		return fmt.Sprintf("null pointer dereference (address %#x)", addr)
	}
	return fmt.Sprintf("shared %s out of range %#x", what, addr)
}

// lockFault returns the error message for a lock word at addr, or ""
// when addr is a valid shared lock address.
func (m *Machine) lockFault(addr int64) string {
	if addr&PrivTag != 0 || addr <= 0 || addr+4 > m.mem.size {
		return fmt.Sprintf("invalid lock address %#x", addr)
	}
	return ""
}

// allocFault returns the error message for count elements of stride
// bytes placed at addr below limit, or "" when they fit. It divides
// instead of multiplying, so a huge count cannot wrap the product.
func allocFault(addr, stride, count, limit int64, exhausted string) string {
	if count < 0 {
		return fmt.Sprintf("negative allocation count %d", count)
	}
	if addr > limit || stride > 0 && count > (limit-addr)/stride {
		return exhausted
	}
	return ""
}

func (m *Machine) emit(p *Proc, sink func(Ref), r Ref) {
	p.Refs++
	if sink != nil {
		sink(r)
	}
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
