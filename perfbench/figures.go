package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"strconv"
	"strings"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// workers is the pool width of the figure workloads: the host this
// benchmark was tuned on has two cores.
const workers = 2

// ksrSweep is ksr-sweep's processor sweep: Table 3's range from the
// uniprocessor baseline to the full 56-processor, two-ring machine,
// thinned so one pass stays a few seconds long.
var ksrSweep = []int{1, 8, 24, 40, 56}

// goldenTable2 is the independent anchor for table2: fsexp's golden
// Table 2 on the reduced block set {32, 128}, read from the checkout.
const goldenTable2 = "cmd/fsexp/testdata/table2.golden"

// figureBench regenerates one of the paper's evaluation tables per
// pass: Table 2 (table2) or Table 3 with its KSR2 sweeps (ksr-sweep).
type figureBench struct {
	name    string // workload name, also the expected-digest file stem
	section string // experiments section ("table2" or "table3")
	cfg     experiments.Config
	machine ksr.Config
	enum    *experiments.Enumeration
	exp     *figureExpected
}

// figureExpected holds the seed commit's outputs of a figure workload.
type figureExpected struct {
	// BlockRows maps "<program>/b<block>" to Table 2's row for that
	// program on that block size alone, every reduction printed
	// exactly; a program with no false sharing at a block has none.
	BlockRows map[string]string `json:"block_rows,omitempty"`
	// Cycles maps each Table 3 sweep cell to its KSR2 cycle count.
	Cycles map[string]string `json:"cycles,omitempty"`
	// Stats maps every cell key to the digest of its cache.Stats.
	Stats map[string]string `json:"stats"`
}

func newTable2() (*figureBench, error) {
	cfg := experiments.DefaultConfig()
	cfg.Workers = workers
	return newFigure("table2", "table2", cfg)
}

func newKSRSweep() (*figureBench, error) {
	cfg := experiments.DefaultConfig()
	cfg.Workers = workers
	cfg.SweepCounts = ksrSweep
	return newFigure("ksr-sweep", "table3", cfg)
}

func newFigure(name, section string, cfg experiments.Config) (*figureBench, error) {
	return &figureBench{name: name, section: section, cfg: cfg, machine: ksr.DefaultConfig()}, nil
}

// Setup builds what every pass reads: the decoded expected outputs it
// checks the table against, and the cell grid it counts its operations
// in and charges a wrong table entry to.
func (f *figureBench) Setup() error {
	f.exp = &figureExpected{}
	if err := loadExpected(f.name, f.exp); err != nil {
		return err
	}
	e, err := experiments.Collect(f.cfg, experiments.SectionSet{Sections: []string{f.section}, Machine: f.machine})
	if err != nil {
		return err
	}
	f.enum = e
	return nil
}

func (f *figureBench) Close() error { return nil }

// Check runs table2's golden anchor; ksr-sweep has none.
func (f *figureBench) Check() (int64, int64, error) {
	if f.name != "table2" {
		return 0, 0, nil
	}
	want, err := os.ReadFile(goldenTable2)
	if err != nil {
		return 0, 0, fmt.Errorf("golden anchor: %w", err)
	}
	cfg := f.cfg
	cfg.Table2Blocks = []int64{32, 128}
	rows, err := experiments.Table2(cfg)
	if err != nil || experiments.RenderTable2(rows)+"\n" != string(want) {
		fmt.Fprintf(os.Stderr, "perfbench: table2 on blocks {32, 128} differs from %s (err: %v)\n", goldenTable2, err)
		return 1, 1, nil
	}
	return 1, 0, nil
}

// Parts splits a pass into parts of about a second on an idle host,
// so that the reference kernel can be timed between them: table2 runs
// Table 2 one block size at a time, ksr-sweep one program's KSR2
// sweep at a time. The parts run the same cells as the whole table,
// and each still fans out over the pool.
func (f *figureBench) Parts() int {
	if f.section == "table2" {
		return len(f.cfg.Table2Blocks)
	}
	return len(workload.All())
}

func (f *figureBench) Part(i int) (passResult, error) {
	return f.runPart(f.cfg, i), nil
}

// runPart regenerates part i of the table and checks it against the
// expected outputs. One operation is one cell; a wrong or missing
// table entry fails the cells it is made of.
func (f *figureBench) runPart(cfg experiments.Config, i int) passResult {
	if f.section == "table2" {
		blk := cfg.Table2Blocks[i]
		cells := f.cellsWhere(func(k string) bool { return strings.Contains(k, fmt.Sprintf("/b%d/", blk)) })
		cfg.Table2Blocks = []int64{blk}
		rows, err := experiments.Table2(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: table2 at block %d: %v\n", blk, err)
			return passResult{ops: cells, failed: cells}
		}
		return passResult{ops: cells, failed: f.checkTable2(blk, rows)}
	}
	b := workload.All()[i]
	prefix := "fig4/" + b.Name + "/"
	cells := f.cellsWhere(func(k string) bool { return strings.HasPrefix(k, prefix) })
	curves, err := experiments.SpeedupCurves(b, cfg, f.machine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s sweep: %v\n", b.Name, err)
		return passResult{ops: cells, failed: cells}
	}
	return passResult{ops: cells, failed: f.checkSweep(prefix, curves)}
}

// checkTable2 compares Table 2 on block size blk with its expected
// rows; a wrong, missing or extra row fails that program's cells at
// that block.
func (f *figureBench) checkTable2(blk int64, rows []experiments.Table2Row) int64 {
	got := table2Rows(blk, rows)
	var failed int64
	for _, b := range workload.Unoptimizable() {
		key := blockRowKey(b.Name, blk)
		if got[key] != f.exp.BlockRows[key] {
			fmt.Fprintf(os.Stderr, "perfbench: table2 row %s = %q, want %q\n", key, got[key], f.exp.BlockRows[key])
			failed += f.cellsWhere(func(k string) bool { return strings.HasPrefix(k, "table2/"+key+"/") })
		}
	}
	return failed
}

// table2Rows prints Table 2's rows at block size blk exactly, keyed
// by blockRowKey.
func table2Rows(blk int64, rows []experiments.Table2Row) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		out[blockRowKey(r.Program, blk)] = strings.Join([]string{
			exact(r.Total), exact(r.GroupTranspose), exact(r.Indirection), exact(r.PadAlign), exact(r.Locks),
		}, " ")
	}
	return out
}

func blockRowKey(prog string, blk int64) string { return fmt.Sprintf("%s/b%d", prog, blk) }

// checkSweep compares one program's sweep with the expected cycle
// count of every cell under prefix; each wrong or missing count fails
// its cell.
func (f *figureBench) checkSweep(prefix string, curves []experiments.Curve) int64 {
	got := map[string]string{}
	for _, c := range curves {
		for i, p := range c.Counts {
			got[sweepKey(c.Program, c.Version, p)] = exact(c.Cycles[i])
		}
	}
	var failed int64
	for key, want := range f.exp.Cycles {
		if strings.HasPrefix(key, prefix) && got[key] != want {
			fmt.Fprintf(os.Stderr, "perfbench: %s cycles = %q, want %q\n", key, got[key], want)
			failed++
		}
	}
	return failed
}

func table3Cycles(rows []experiments.Table3Row) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		for _, c := range r.Curves {
			for i, p := range c.Counts {
				out[sweepKey(r.Program, c.Version, p)] = exact(c.Cycles[i])
			}
		}
	}
	return out
}

func sweepKey(prog string, ver experiments.Version, p int) string {
	return fmt.Sprintf("fig4/%s/%s/p%d", prog, ver, p)
}

func (f *figureBench) cellsWhere(match func(key string) bool) int64 {
	var n int64
	for _, k := range f.enum.Keys() {
		if match(k) {
			n++
		}
	}
	return n
}

// Traced times one serial untraced pass, then the same cells one by
// one with every layer called from outside, checking each cell's
// cache.Stats against its expected digest.
func (f *figureBench) Traced() (tracedResult, error) {
	serial := f.cfg
	serial.Workers = 1
	var pr passResult
	t0 := time.Now()
	for i := 0; i < f.Parts(); i++ {
		p := f.runPart(serial, i)
		pr.ops += p.ops
		pr.failed += p.failed
	}
	untraced := time.Since(t0)

	ctx := context.Background()
	l := newLayers()
	keys := f.enum.Keys()
	tr := tracedResult{attempted: pr.ops, failed: pr.failed}
	t0 = time.Now()
	for _, key := range keys {
		digest, err := f.traceCell(ctx, l, key)
		tr.attempted++
		if err != nil || digest != f.exp.Stats[key] {
			fmt.Fprintf(os.Stderr, "perfbench: cell %s: stats digest %s, want %s (err: %v)\n", key, digest, f.exp.Stats[key], err)
			tr.failed++
		}
	}
	tr.metrics = l.metrics(int64(len(keys)), time.Since(t0), untraced)
	return tr, nil
}

// cell is one parsed cell key.
type cell struct {
	bench *workload.Benchmark
	ver   experiments.Version
	procs int
	block int64
	heur  transform.Config
}

// parseCell decodes "table2/<prog>/b<block>/<variant>" and
// "fig4/<prog>/<version>/p<procs>" keys.
func (f *figureBench) parseCell(key string) (cell, error) {
	parts := strings.Split(key, "/")
	if len(parts) != 4 {
		return cell{}, fmt.Errorf("unexpected cell key %q", key)
	}
	c := cell{bench: workload.Get(parts[1])}
	if c.bench == nil {
		return cell{}, fmt.Errorf("cell %q: unknown program", key)
	}
	var err error
	switch parts[0] {
	case "table2":
		c.block, err = strconv.ParseInt(strings.TrimPrefix(parts[2], "b"), 10, 64)
		c.procs = f.cfg.Fig3Procs
		if c.bench.Name == "topopt" && f.cfg.Fig3ProcsTopopt > 0 {
			c.procs = f.cfg.Fig3ProcsTopopt
		}
		c.ver = experiments.VersionC
		if parts[3] == "N" {
			c.ver = experiments.VersionN
		}
		var ok bool
		if c.heur, ok = table2Variants[parts[3]]; !ok {
			return cell{}, fmt.Errorf("cell %q: unknown variant", key)
		}
	case "fig4":
		c.ver = experiments.Version(parts[2])
		c.procs, err = strconv.Atoi(strings.TrimPrefix(parts[3], "p"))
		c.block = f.machine.BlockSize
	default:
		return cell{}, fmt.Errorf("unexpected cell key %q", key)
	}
	if err != nil {
		return cell{}, fmt.Errorf("cell %q: %w", key, err)
	}
	return c, nil
}

// table2Variants mirrors Table 2's heuristic variants: the unoptimized
// reference, the full restructurer, and each transformation alone.
var table2Variants = map[string]transform.Config{
	"N":     {},
	"all":   {},
	"gt":    {DisableIndirection: true, DisablePadAlign: true, CoAllocateLocks: true},
	"ind":   {DisableGroupTranspose: true, DisablePadAlign: true, CoAllocateLocks: true},
	"pad":   {DisableGroupTranspose: true, DisableIndirection: true, CoAllocateLocks: true},
	"locks": {DisableGroupTranspose: true, DisableIndirection: true, DisablePadAlign: true},
}

func (c cell) source() string {
	if c.ver == experiments.VersionP {
		return c.bench.ProgrammerSource(1)
	}
	return c.bench.Source(1)
}

// traceCell runs one cell layer by layer and returns the digest of
// its cache.Stats. Sweep cells also run ksr.ExecuteCtx whole: the
// model's own time is what it took beyond the VM and simulator work.
func (f *figureBench) traceCell(ctx context.Context, l *layers, key string) (string, error) {
	c, err := f.parseCell(key)
	if err != nil {
		return "", err
	}
	var prog *core.Program
	err = l.build(c.source(), func() (err error) {
		prog, err = experiments.ProgramCtx(ctx, c.bench, c.ver, c.procs, f.cfg.Scale, c.block, c.heur)
		return err
	})
	if err != nil {
		return "", err
	}
	if f.section == "table2" {
		st, _, err := l.execute(ctx, prog, cache.DefaultConfig(c.procs, c.block), f.cfg.StepBudget, false)
		if err != nil {
			return "", err
		}
		return statsDigest(st), nil
	}

	t0 := time.Now()
	r, err := ksr.ExecuteCtx(ctx, prog, f.machine)
	whole := time.Since(t0)
	if err != nil {
		return "", err
	}
	before := l.vmCompile + l.vmNew + l.vmRun + l.simBusy
	st, _, err := l.execute(ctx, prog, ksrCacheConfig(f.machine), f.machine.StepBudget, false)
	if err != nil {
		return "", err
	}
	decomposed := l.vmCompile + l.vmNew + l.vmRun + l.simBusy - before
	l.ksrModel += whole - decomposed
	l.rerun += decomposed
	if d := statsDigest(r.Stats); d != statsDigest(st) {
		return d, fmt.Errorf("replayed stats differ from ksr.ExecuteCtx's")
	}
	if got, want := exact(r.Cycles), f.exp.Cycles[key]; got != want {
		return "", fmt.Errorf("cycles %s, want %s", got, want)
	}
	return statsDigest(st), nil
}

// ksrCacheConfig is the simulator ksr.ExecuteCtx builds for a machine.
func ksrCacheConfig(m ksr.Config) cache.Config {
	return cache.Config{BlockSize: m.BlockSize, CacheSize: m.CacheSize, Assoc: m.Assoc}
}

// statsDigest is the first 64 bits of sha256 over the JSON encoding
// of a cache.Stats: every counter, per-processor arrays and the
// configuration.
func statsDigest(st *cache.Stats) string {
	b, err := json.Marshal(st)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// exact prints a float so that it parses back to the same bits.
func exact(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// expectFigure computes the expected outputs through the program's
// own entry points: the table driver for rows and cycles, and each
// cell's own measurement call (MeasureBlocksCtx for Table 2,
// ksr.ExecuteCtx for the sweeps) for the stats digests.
func (f *figureBench) expectFigure() (*figureExpected, error) {
	ctx := context.Background()
	exp := &figureExpected{Stats: map[string]string{}}
	if f.section == "table2" {
		exp.BlockRows = map[string]string{}
		for _, blk := range f.cfg.Table2Blocks {
			cfg := f.cfg
			cfg.Table2Blocks = []int64{blk}
			rows, err := experiments.Table2(cfg)
			if err != nil {
				return nil, err
			}
			maps.Copy(exp.BlockRows, table2Rows(blk, rows))
		}
	} else {
		rows, err := experiments.Table3(f.cfg, f.machine)
		if err != nil {
			return nil, err
		}
		exp.Cycles = table3Cycles(rows)
	}
	for _, key := range f.enum.Keys() {
		c, err := f.parseCell(key)
		if err != nil {
			return nil, err
		}
		prog, err := experiments.ProgramCtx(ctx, c.bench, c.ver, c.procs, f.cfg.Scale, c.block, c.heur)
		if err != nil {
			return nil, err
		}
		var st *cache.Stats
		if f.section == "table2" {
			stats, err := experiments.MeasureBlocksCtx(ctx, prog, []int64{c.block}, 1, f.cfg.StepBudget)
			if err != nil {
				return nil, err
			}
			st = stats[0]
		} else {
			r, err := ksr.ExecuteCtx(ctx, prog, f.machine)
			if err != nil {
				return nil, err
			}
			st = r.Stats
		}
		exp.Stats[key] = statsDigest(st)
	}
	return exp, nil
}
