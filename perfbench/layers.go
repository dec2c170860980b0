package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/obs"
	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
	"falseshare/internal/vm"
)

// layers accumulates one traced pass: the busy time, work counts and
// allocations of every layer, measured from outside by calling each
// layer's public functions in turn. It is used from one goroutine:
// the traced pass runs serially so that busy times are not inflated
// by a concurrent worker and allocation counts belong to the layer.
type layers struct {
	// busy holds self time per layer of the compile pipeline, read
	// from the stage spans core already records, and of artifact
	// store calls.
	busy map[string]time.Duration

	srcBytes, rsds, applied, verifyRuns int64

	vmCompile, vmNew, vmRun time.Duration
	instrs, refs, runs      int64
	vmAllocBytes            uint64
	sharedBytes             int64
	distinct                map[[32]byte]bool

	simBusy   time.Duration
	simRefs   int64
	simAllocs uint64

	ksrModel time.Duration
	attrBusy time.Duration
	// rerun is work done twice only to split it between layers — the
	// trace capture for the simulator replay, and the whole
	// ExecuteCtx or MeasureConfig runs whose VM and simulator time the
	// decomposition already booked: tracing cost, in no layer.
	rerun time.Duration
}

func newLayers() *layers {
	return &layers{busy: map[string]time.Duration{}, distinct: map[[32]byte]bool{}}
}

// stageLayer maps core's stage span names to the module that does the
// stage's work. Spans not listed ("compile", "restructure") are core's
// own glue and count as time no layer covers.
var stageLayer = map[string]string{
	"parse":      "lang",
	"typecheck":  "lang",
	"recheck":    "lang",
	"cfg":        "analysis",
	"pdv":        "analysis",
	"procs":      "analysis",
	"nonconc":    "analysis",
	"sideeffect": "analysis",
	"decide":     "transform",
	"apply":      "transform",
	"layout":     "layout",
	"verify":     "verify",
}

// build runs one compile-pipeline call (core.CompileCtx,
// core.RestructureCtx or experiments.ProgramCtx) under a private
// recorder and books each stage's self time to its layer. src is the
// program text handed to the front end.
func (l *layers) build(src string, fn func() error) error {
	rec := obs.NewRecorder()
	prev := obs.BindGoroutine(rec)
	err := fn()
	obs.BindGoroutine(prev)
	l.addSpans(rec.Spans(), int64(len(src)))
	return err
}

func (l *layers) addSpans(spans []*obs.Span, srcLen int64) {
	for _, s := range spans {
		self := s.Wall
		for _, c := range s.Children {
			self -= c.Wall
		}
		if layer, ok := stageLayer[s.Name]; ok {
			l.busy[layer] += self
		}
		switch s.Name {
		case "parse":
			l.srcBytes += srcLen
		case "sideeffect":
			l.rsds += s.Counter("rsd_added")
		case "apply":
			l.applied += s.Counter("applied")
		case "verify":
			l.verifyRuns++
		}
		l.addSpans(s.Children, srcLen)
	}
}

// execute runs prog on the VM into a null sink, then again to capture
// its trace, and replays the trace into a simulator built from ccfg
// (NumProcs is taken from the program). It returns the simulator's
// statistics, which are exactly what the inline VM→simulator path
// produces for the same program and configuration. With attributed
// set it replays the trace once more into a simulator carrying an
// attribution collector, books the extra time to sim/attr, and
// returns the collector's report as well.
func (l *layers) execute(ctx context.Context, prog *core.Program, ccfg cache.Config, budget int64, attributed bool) (*cache.Stats, *attr.Report, error) {
	nprocs := int(prog.Layout.Nprocs)
	t0 := time.Now()
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	l.vmCompile += time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	l.sharedBytes += prog.Layout.End
	l.distinct[programKey(bc, nprocs, budget)] = true
	l.runs++

	m := l.newMachine(ctx, bc, budget)
	var refs int64
	t0 = time.Now()
	err = m.Run(func(vm.Ref) { refs++ })
	l.vmRun += time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	l.instrs += m.TotalInstrs()
	l.refs += refs

	t0 = time.Now()
	m2 := bounded(ctx, vm.New(bc), budget)
	trace := make([]uint64, 0, refs)
	var packErr error
	err = m2.Run(func(r vm.Ref) {
		p, ok := pack(r)
		if !ok && packErr == nil {
			packErr = fmt.Errorf("reference %+v does not fit the packed trace format", r)
		}
		trace = append(trace, p)
	})
	l.rerun += time.Since(t0)
	if err == nil {
		err = packErr
	}
	if err != nil {
		return nil, nil, err
	}

	ccfg.NumProcs = nprocs
	sim, err := cache.New(ccfg)
	if err != nil {
		return nil, nil, err
	}
	mallocs0 := mallocs()
	plain := replay(sim, trace)
	l.simBusy += plain
	l.simAllocs += mallocs() - mallocs0
	l.simRefs += int64(len(trace))
	if !attributed {
		return sim.Stats(), nil, nil
	}

	asim, err := cache.New(ccfg)
	if err != nil {
		return nil, nil, err
	}
	amap := attr.NewMap(prog.Layout)
	amap.AttachMachine(m)
	col := attr.NewCollector(amap, ccfg.BlockSize)
	asim.SetAttributor(col)
	withAttr := replay(asim, trace)
	amap.ResolveOwners()
	// A second plain replay after the attributed one, so the order
	// of the two replays does not bias the difference.
	again, err := cache.New(ccfg)
	if err != nil {
		return nil, nil, err
	}
	plain2 := replay(again, trace)
	cost := withAttr - min(plain, plain2)
	l.attrBusy += cost
	l.rerun += withAttr - cost + plain2
	return sim.Stats(), col.Report(nprocs), nil
}

func replay(sim *cache.Sim, trace []uint64) time.Duration {
	t0 := time.Now()
	for _, p := range trace {
		proc, addr, size, write := unpack(p)
		sim.Access(proc, addr, size, write)
	}
	return time.Since(t0)
}

// newMachine times vm.New and books the bytes of the large heap
// objects (over 32 KiB: the shared memory image and the private
// spaces) it allocated.
func (l *layers) newMachine(ctx context.Context, bc *vm.Program, budget int64) *vm.Machine {
	before := largeAllocBytes()
	t0 := time.Now()
	m := vm.New(bc)
	l.vmNew += time.Since(t0)
	l.vmAllocBytes += largeAllocBytes() - before
	return bounded(ctx, m, budget)
}

// largeAllocBytes is the cumulative bytes of large heap objects. The
// runtime books a large object, in whole pages, the moment it is
// allocated, but books small objects only when their span leaves a
// per-P cache, so the total alone jitters between identical runs.
// Subtracting every small size class's count times its size leaves an
// exact figure.
func largeAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(s)
	large := s[0].Value.Uint64()
	h := s[1].Value.Float64Histogram()
	// Bucket i holds the size class [Buckets[i], Buckets[i+1]); the
	// last one, unbounded, counts the large objects.
	for i := 0; i < len(h.Counts)-1; i++ {
		large -= h.Counts[i] * uint64(h.Buckets[i+1]-1)
	}
	return large
}

// bounded applies the context and step budget the program's own
// measurement calls apply (budget 0 keeps the VM default).
func bounded(ctx context.Context, m *vm.Machine, budget int64) *vm.Machine {
	m.SetContext(ctx)
	if budget > 0 {
		m.MaxInstrs = budget
	}
	return m
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// pack squeezes a reference into one word (address: 40 bits,
// processor: 16, size: 7, write: 1) so a captured trace costs 8 bytes
// per reference instead of vm.Ref's 24.
func pack(r vm.Ref) (uint64, bool) {
	ok := r.Addr >= 0 && r.Addr < 1<<40 && r.Proc >= 0 && r.Proc < 1<<16 && r.Size >= 0
	w := uint64(0)
	if r.Write {
		w = 1
	}
	return uint64(r.Addr) | uint64(r.Proc)<<40 | uint64(r.Size)<<56 | w<<63, ok
}

func unpack(p uint64) (proc int, addr, size int64, write bool) {
	return int(p >> 40 & 0xffff), int64(p & (1<<40 - 1)), int64(p >> 56 & 0x7f), p>>63 == 1
}

// programKey identifies one VM execution by everything it depends on:
// sha256(bytecode ‖ address map ‖ nprocs ‖ budget), where the address
// map is the machine's memory map. Variable names and the layout's
// per-variable table are left out: the bytecode already carries every
// address it touches. Two cells with equal keys run the same program
// and produce the same trace.
func programKey(bc *vm.Program, nprocs int, budget int64) [32]byte {
	h := sha256.New()
	word := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	word(int64(len(bc.Funcs)))
	for _, f := range bc.Funcs {
		word(int64(f.NParams))
		word(int64(f.NLocals))
		word(int64(len(f.Code)))
		for _, in := range f.Code {
			word(int64(in.Op))
			word(in.A)
			word(in.B)
		}
	}
	word(int64(bc.Main))
	word(bc.SharedEnd)
	word(bc.HeapBase)
	word(bc.ArenaBase)
	word(bc.ArenaSize)
	word(bc.PrivSize)
	word(int64(nprocs))
	word(budget)
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

// metrics renders the accumulated layers. wall is the traced pass's
// wall time and untraced the same operations' untraced wall; other is
// the part of the traced wall that no layer call (and no rerun)
// covers.
func (l *layers) metrics(cells int64, wall, untraced time.Duration) map[string]float64 {
	covered := l.rerun + l.vmCompile + l.vmNew + l.vmRun + l.simBusy + l.ksrModel + l.attrBusy
	for _, d := range l.busy {
		covered += d
	}
	m := map[string]float64{
		"lang.busy_s":              l.busy["lang"].Seconds(),
		"lang.src_kib":             float64(l.srcBytes) / 1024,
		"analysis.busy_s":          l.busy["analysis"].Seconds(),
		"analysis.rsds":            float64(l.rsds),
		"transform.busy_s":         l.busy["transform"].Seconds(),
		"transform.applied":        float64(l.applied),
		"layout.busy_s":            l.busy["layout"].Seconds(),
		"layout.shared_mib":        float64(l.sharedBytes) / (1 << 20),
		"verify.busy_s":            l.busy["verify"].Seconds(),
		"verify.runs":              float64(l.verifyRuns),
		"vm.compile_s":             l.vmCompile.Seconds(),
		"vm.new_s":                 l.vmNew.Seconds(),
		"vm.run_s":                 l.vmRun.Seconds(),
		"vm.instrs":                float64(l.instrs),
		"vm.refs":                  float64(l.refs),
		"vm.ns_per_instr":          ratio(float64(l.vmRun), float64(l.instrs)),
		"vm.alloc_mib":             float64(l.vmAllocBytes) / (1 << 20),
		"vm.runs":                  float64(l.runs),
		"vm.distinct_programs":     float64(len(l.distinct)),
		"vm.distinct_ratio":        ratio(float64(len(l.distinct)), float64(l.runs)),
		"sim.cache.busy_s":         l.simBusy.Seconds(),
		"sim.cache.refs":           float64(l.simRefs),
		"sim.cache.ns_per_ref":     ratio(float64(l.simBusy), float64(l.simRefs)),
		"sim.cache.allocs_per_ref": ratio(float64(l.simAllocs), float64(l.simRefs)),
		"sim.ksr.model_s":          l.ksrModel.Seconds(),
		"sim.attr.busy_s":          l.attrBusy.Seconds(),
		"experiments.cells":        float64(cells),
		"experiments.other_s":      (wall - covered).Seconds(),
		"trace.untraced_wall_s":    untraced.Seconds(),
		"trace.traced_wall_s":      wall.Seconds(),
		"trace.overhead_s":         (wall - untraced).Seconds(),
	}
	printShares(m, l.busy, wall-l.rerun, l.rerun)
	return m
}

// printShares writes each layer's self time and its share of the
// traced wall net of reruns to stderr: where one pass's time went.
func printShares(m map[string]float64, busy map[string]time.Duration, net, rerun time.Duration) {
	fmt.Fprintf(os.Stderr, "perfbench: traced pass %.3f s (%.3f s of it reruns work to split it between layers); self time by layer:\n",
		(net + rerun).Seconds(), rerun.Seconds())
	rows := []struct {
		layer string
		s     float64
	}{
		{"lang", m["lang.busy_s"]},
		{"analysis", m["analysis.busy_s"]},
		{"transform", m["transform.busy_s"]},
		{"layout", m["layout.busy_s"]},
		{"verify", m["verify.busy_s"]},
		{"vm", m["vm.compile_s"] + m["vm.new_s"] + m["vm.run_s"]},
		{"sim/cache", m["sim.cache.busy_s"]},
		{"sim/ksr", m["sim.ksr.model_s"]},
		{"sim/attr", m["sim.attr.busy_s"]},
		{"artifact", busy["artifact"].Seconds()},
		{"other", m["experiments.other_s"]},
	}
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "  %-10s %10.3f s %6.1f%%\n", r.layer, r.s, 100*r.s/net.Seconds())
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
