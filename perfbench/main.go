// Command perfbench is the repository benchmark. It runs one workload
// in process through the public API, checks every output against the
// digests committed in expected/, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload table2 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it times whole passes and prints the end-to-end
// metrics; with --trace 1 it runs one pass with the layers called one
// by one from outside and prints the per-layer metrics. README.md
// maps each layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many set-ups a run times before its first pass,
// and setupRepsPerPass how many more it times after each pass. setup_s
// is the median of them all: spread over the run, so that the load a
// shared host happens to carry at start-up does not decide it.
const (
	setupReps        = 11
	setupRepsPerPass = 4
)

// minPasses keeps the pass medians meaningful when one pass is
// longer than a third of --seconds.
const minPasses = 3

// bench is one workload. Setup may be called again after Close: each
// call builds the workload's state from scratch.
type bench interface {
	Setup() error
	// Check runs the untimed one-off output checks (attempted, failed).
	Check() (int64, int64, error)
	// Parts is how many parts one timed pass has; Part runs part i.
	Parts() int
	Part(i int) (passResult, error)
	// Traced runs the per-layer decomposition.
	Traced() (tracedResult, error)
	Close() error
}

// passResult is what one pass did: the operations it attempted, those
// that failed (errors, refusals, output mismatches) and, where the
// operations are individually timed, their latencies.
type passResult struct {
	ops, failed int64
	latencies   []time.Duration
}

// tracedResult is a traced pass: the per-layer metrics, plus the
// operations it checked and those whose output was wrong.
type tracedResult struct {
	metrics           map[string]float64
	attempted, failed int64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics with their units, in print
// order; perLayer the traced ones. Both must match BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"alloc_mib", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"lang.busy_s", "s"},
	{"lang.src_kib", "KiB"},
	{"analysis.busy_s", "s"},
	{"analysis.rsds", "count"},
	{"transform.busy_s", "s"},
	{"transform.applied", "count"},
	{"layout.busy_s", "s"},
	{"layout.shared_mib", "MiB"},
	{"verify.busy_s", "s"},
	{"verify.runs", "count"},
	{"vm.compile_s", "s"},
	{"vm.new_s", "s"},
	{"vm.run_s", "s"},
	{"vm.instrs", "count"},
	{"vm.refs", "count"},
	{"vm.ns_per_instr", "ns"},
	{"vm.alloc_mib", "MiB"},
	{"vm.runs", "count"},
	{"vm.distinct_programs", "count"},
	{"vm.distinct_ratio", "ratio"},
	{"sim.cache.busy_s", "s"},
	{"sim.cache.refs", "count"},
	{"sim.cache.ns_per_ref", "ns"},
	{"sim.cache.allocs_per_ref", "count"},
	{"sim.ksr.model_s", "s"},
	{"sim.attr.busy_s", "s"},
	{"experiments.cells", "count"},
	{"experiments.other_s", "s"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.wait_p50_ms", "ms"},
	{"serve.warm_p50_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.warm_s", "s"},
	{"serve.analyze_s", "s"},
	{"serve.transform_s", "s"},
	{"serve.simulate_s", "s"},
	{"artifact.open_s", "s"},
	{"artifact.get_us", "us"},
	{"artifact.put_us", "us"},
	{"artifact.entries", "count"},
	{"artifact.mib", "MiB"},
	{"trace.untraced_wall_s", "s"},
	{"trace.traced_wall_s", "s"},
	{"trace.overhead_s", "s"},
}

func main() {
	workload := flag.String("workload", "", "workload: table2, ksr-sweep or fsd-mix")
	seed := flag.Int64("seed", 1, "input seed (fsd-mix request order; the figure workloads have fixed inputs)")
	seconds := flag.Int("seconds", 30, "how long the timed passes run")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced pass instead")
	corpusSeed := flag.Int64("corpus-seed", defaultCorpusSeed, "fsd-mix program corpus seed (expected digests exist for the default only)")
	writeExpected := flag.String("write-expected", "", "regenerate the expected digests of --workload into this directory and exit")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1, not %d", *seconds))
	}

	b, err := newBench(*workload, *corpusSeed, *seed)
	if err != nil {
		fatal(err)
	}
	if *writeExpected != "" {
		if err := writeExpectedFor(*workload, b, *writeExpected); err != nil {
			fatal(err)
		}
		return
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(b)
	} else {
		// The set-ups are timed on a second instance, so that they can
		// run between passes without disturbing the one being measured.
		var spare bench
		if spare, err = newBench(*workload, *corpusSeed, *seed); err == nil {
			res, err = runTimed(b, spare, time.Duration(*seconds)*time.Second)
		}
	}
	if cerr := b.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func newBench(name string, corpusSeed, orderSeed int64) (bench, error) {
	switch name {
	case "table2":
		return newTable2()
	case "ksr-sweep":
		return newKSRSweep()
	case "fsd-mix":
		return newFSDMix(corpusSeed, orderSeed)
	}
	return nil, fmt.Errorf("unknown --workload %q (want table2, ksr-sweep or fsd-mix)", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// runTimed is the untraced run: time set-ups on spare, set b up, run
// the one-off checks, then timed passes of b until the time is spent,
// timing more set-ups on spare after each. A reference chunk runs
// before the first part and after every part; each part's timings
// are scaled by the reference's local speed (calibrate.go).
func runTimed(b, spare bench, budget time.Duration) (*result, error) {
	setups, err := timeSetups(spare, setupReps, nil)
	if err != nil {
		return nil, err
	}
	if err := b.Setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	attempted, failed, err := b.Check()
	if err != nil {
		return nil, err
	}
	// One untimed part first, so that connections, caches and the
	// heap are warm before timing: a cold start is set-up, and it
	// would otherwise put one run's first requests in the tail.
	warm, err := b.Part(0)
	if err != nil {
		return nil, err
	}
	attempted += warm.ops
	failed += warm.failed

	// part is one timed part: the pass it belongs to, the reference
	// chunk that ran just before it, and what it measured.
	type part struct {
		pass, ref int
		wall, cpu time.Duration
		alloc     uint64
		passResult
	}
	var parts []part
	ref := newRefState()
	cal := &calibration{}
	cal.add(ref)
	start := time.Now()
	var lastPass time.Duration
	passes := 0
	// A pass starts only if it should end within the budget, so the
	// run measures for the budget and no longer.
	for ; passes < minPasses || time.Since(start)+lastPass <= budget; passes++ {
		p0 := time.Now()
		for i := 0; i < b.Parts(); i++ {
			cpu0, alloc0 := cpuTime(), totalAlloc()
			t0 := time.Now()
			pr, err := b.Part(i)
			if err != nil {
				return nil, err
			}
			wall := time.Since(t0)
			parts = append(parts, part{passes, len(cal.walls) - 1, wall, cpuTime() - cpu0, totalAlloc() - alloc0, pr})
			cal.add(ref)
		}
		if setups, err = timeSetups(spare, setupRepsPerPass, setups); err != nil {
			return nil, err
		}
		lastPass = time.Since(p0)
	}

	walls := make([]float64, passes)
	raws := make([]float64, passes)
	cpus := make([]float64, passes)
	allocs := make([]float64, passes)
	passLats := make([][]time.Duration, passes)
	var ops int64
	for _, p := range parts {
		k := cal.wallFactor(p.ref)
		walls[p.pass] += k * p.wall.Seconds()
		raws[p.pass] += p.wall.Seconds()
		cpus[p.pass] += cal.cpuFactor(p.ref) * p.cpu.Seconds()
		allocs[p.pass] += float64(p.alloc) / (1 << 20)
		attempted += p.ops
		failed += p.failed
		ops += p.ops
		for _, l := range p.latencies {
			passLats[p.pass] = append(passLats[p.pass], time.Duration(k*float64(l)))
		}
	}
	// The latency median is over every operation; the tail is each
	// pass's own, and op_tail_ms their median, so that a stall of
	// the host during one pass moves one pass's tail, not the run's.
	var lats []time.Duration
	tails := make([]float64, passes)
	var beyond int
	for i, w := range walls {
		if passLats[i] == nil {
			// The operation a figure user waits for is the whole
			// table: one latency sample per pass.
			passLats[i] = []time.Duration{time.Duration(w * float64(time.Second))}
		}
		lats = append(lats, passLats[i]...)
		_, tails[i], beyond = latencySummary(passLats[i])
	}
	var busy float64
	for _, w := range walls {
		busy += w
	}
	p50, _, _ := latencySummary(lats)
	m := map[string]float64{
		"wall_s":       median(walls),
		"ops_per_s":    float64(ops) / busy,
		"op_p50_ms":    p50,
		"op_tail_ms":   median(tails),
		"cpu_s":        median(cpus),
		"peak_rss_mib": peakRSS(),
		"alloc_mib":    median(allocs),
		"setup_s":      cal.overall() * median(setups),
	}
	fmt.Fprintf(os.Stderr, "perfbench: pass walls, raw (s): %.3f\n", raws)
	fmt.Fprintf(os.Stderr, "perfbench: pass walls, calibrated (s): %.3f\n", walls)
	fmt.Fprintf(os.Stderr, "perfbench: %d reference chunks, median %v (%v to %v) and %v CPU, nominal %v: raw wall_s %.4f, raw setup_s %.6f\n",
		len(cal.walls), medianDuration(cal.walls), slices.Min(cal.walls), slices.Max(cal.walls), medianDuration(cal.cpus), refNominal, median(raws), median(setups))
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups, %.6f to %.6f s raw\n", len(setups), slices.Min(setups), slices.Max(setups))
	if s, ok := b.(interface{ Summary() string }); ok {
		fmt.Fprint(os.Stderr, s.Summary())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, %d ops, %d latency samples (each pass's tail has %d beyond it), error_rate %.6f\n",
		passes, ops, len(lats), beyond, float64(failed)/float64(attempted))
	return finish(attempted, failed, m, endToEnd), nil
}

// runTraced is the traced run: one set-up, the checks, then the
// workload's per-layer decomposition.
func runTraced(b bench) (*result, error) {
	if err := b.Setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	attempted, failed, err := b.Check()
	if err != nil {
		return nil, err
	}
	tr, err := b.Traced()
	if err != nil {
		return nil, err
	}
	return finish(attempted+tr.attempted, failed+tr.failed, tr.metrics, perLayer), nil
}

// timeSetups sets spare up and closes it again n times, appending each
// set-up's wall time to ds. A collection runs first each time, so that
// none the previous pass left due lands inside a set-up.
func timeSetups(spare bench, n int, ds []float64) ([]float64, error) {
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := spare.Setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
		if err := spare.Close(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// finish assembles the result line and echoes it as a table on
// stderr. Layers a workload does not exercise read 0.
func finish(attempted, failed int64, m map[string]float64, names []struct{ name, unit string }) *result {
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	var sb strings.Builder
	for _, n := range names {
		v := m[n.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[n.name] = metric{Value: v, Unit: n.unit}
		fmt.Fprintf(&sb, "  %-26s %16.6f %s\n", n.name, v, n.unit)
	}
	fmt.Fprint(os.Stderr, sb.String())
	return res
}

// latencySummary returns the median and the tail latency in ms. The
// tail is the highest percentile that still has at least ten samples
// beyond it (the 11th-slowest sample); a set with too few samples for
// that percentile to lie above the median (fewer than 22, as in a
// figure pass, which is one sample) has no resolvable tail, and the
// median stands in. beyond is the number of samples slower than the
// reported tail.
func latencySummary(lats []time.Duration) (p50, tail float64, beyond int) {
	xs := make([]float64, len(lats))
	for i, d := range lats {
		xs[i] = float64(d) / 1e6
	}
	sort.Float64s(xs)
	p50 = median(xs)
	if len(xs) > 10 && xs[len(xs)-11] > p50 {
		return p50, xs[len(xs)-11], 10
	}
	return p50, p50, len(xs) / 2
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSS reads the process's resident high-water mark in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
