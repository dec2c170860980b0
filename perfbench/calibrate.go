package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on a shared host whose speed drifts by a quarter
// to several times from one run to the next as other tenants' load
// comes and goes; CPU time drifts with wall time, so the host slows
// every instruction, not just the scheduling. A fixed reference
// kernel, which does not call into the program, is therefore timed
// between every two parts of a pass, with both cores busy as they are
// during the pass. Each timing the run reports is scaled by the
// reference's nominal time over its local time: the time the work
// would have taken on the host at a fixed speed, about an idle one's.
// A change
// to the program moves the scaled timings just as it moves the raw
// ones; a change in the host's speed moves both the work and the
// reference and cancels out. stderr prints the raw timings too.

// refNominal is about the reference chunk's wall time between parts
// on the two-core host the benchmark was tuned on when idle (from the
// two kinds of piece: 18.5 ms for a chunk of 8 MiB pieces, about 12 ms
// for one of 32 KiB pieces), so that calibrated timings there read
// close to raw ones. It only fixes the scale of the calibrated
// timings; it must never change, or every timing moves.
const refNominal = 16 * time.Millisecond

// refPieces and refIters size a reference chunk to take about
// refNominal there: refPieces pieces of refIters iterations each.
const (
	refPieces = 40
	refIters  = 21500
)

// refWidth is how many goroutines run the reference at once: as many
// as the passes keep busy (pool workers, fsd workers and clients).
// They take pieces from a shared counter, as the pool's workers take
// jobs, so that a core the host slows only costs its share of the
// chunk.
const refWidth = 2

// refWindow is how many reference chunks around a part give its local
// speed: their median, so a chunk that a momentary burst of load
// slowed does not decide it.
const refWindow = 5

// refCode is the reference kernel's bytecode: an interpreter loop
// over pseudo-random loads and stores into a table a few MiB large,
// like the VM feeding the cache simulator.
var refCode = []byte{0, 1, 3, 2, 4, 0, 5, 1, 6, 2, 7, 3}

// refMemWords sizes each goroutine's table (8 MiB): past the
// core's own caches, into the last-level cache the host's tenants
// share, as the VM's memory and the simulator's tables are.
const refMemWords = 1 << 21

// One piece in refCoreEvery keeps to the first refCoreWords of its
// table (32 KiB), which stay in the core's own cache: those pieces
// slow with the core but not with the shared cache and memory. The
// workloads spend part of their time in such work (the daemon's HTTP,
// JSON and compile work more than the figures' VM and simulator), so
// a reference that only missed the core's caches would over-correct
// them when the host's tenants load the memory.
const (
	refCoreWords = 1 << 13
	refCoreEvery = 3
)

// refState is the reference kernel's memory, one table per goroutine
// so they share no cache lines, allocated once so a chunk allocates
// nothing.
type refState struct {
	mem  [refWidth][]uint32
	sink [refWidth]uint32
}

func newRefState() *refState {
	r := &refState{}
	for i := range r.mem {
		r.mem[i] = make([]uint32, refMemWords)
	}
	return r
}

// sample runs one reference chunk on refWidth goroutines and returns
// its wall time and the process CPU time it took. A collection runs
// first, so that the chunk does not share the cores with one the part
// before it left running.
func (r *refState) sample() (wall, cpu time.Duration) {
	runtime.GC()
	var wg sync.WaitGroup
	var next atomic.Int32
	cpu0 := cpuTime()
	t0 := time.Now()
	for i := 0; i < refWidth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for p := next.Add(1); p <= refPieces; p = next.Add(1) {
				mem := r.mem[i]
				if p%refCoreEvery == 0 {
					mem = mem[:refCoreWords]
				}
				r.sink[i] += refKernel(mem, refIters)
			}
		}(i)
	}
	wg.Wait()
	return time.Since(t0), cpuTime() - cpu0
}

// refKernel interprets refCode iters times over mem, whose length is
// a power of two.
func refKernel(mem []uint32, iters int) uint32 {
	mask := uint32(len(mem) - 1)
	var a, b, c, d uint32 = 1, 2, 3, 4
	for n := 0; n < iters; n++ {
		for _, op := range refCode {
			switch op {
			case 0:
				a = a*1664525 + 1013904223
			case 1:
				b += mem[(a>>8)&mask]
			case 2:
				mem[(a>>3)&mask] = b ^ c
			case 3:
				c = c<<1 | c>>31
			case 4:
				if b&1 == 0 {
					d++
				} else {
					d += c
				}
			case 5:
				c ^= mem[(b>>5)&mask]
			case 6:
				d = d*31 + b
			case 7:
				mem[(d>>9)&mask] += a
			}
		}
	}
	return a ^ b ^ c ^ d
}

// calibration is a run's sequence of reference chunks, in the order
// they ran between the parts of its passes: their wall times, and
// their CPU times, which scale the parts' CPU times. Where the host
// takes a core away for a while rather than slowing it, wall time
// grows and CPU time does not, in the parts and the chunks alike.
type calibration struct {
	walls, cpus []time.Duration
}

func (c *calibration) add(r *refState) {
	wall, cpu := r.sample()
	c.walls = append(c.walls, wall)
	c.cpus = append(c.cpus, cpu)
}

// wallFactor and cpuFactor scale the wall and CPU time of the part
// that ran between chunks i and i+1.
func (c *calibration) wallFactor(i int) float64 { return localScale(c.walls, refNominal, i) }

// The chunk's nominal CPU time is refWidth goroutines busy for
// refNominal.
func (c *calibration) cpuFactor(i int) float64 { return localScale(c.cpus, refWidth*refNominal, i) }

// overall is the scale for wall time spread over the whole run:
// refNominal over the median of every chunk.
func (c *calibration) overall() float64 {
	return refNominal.Seconds() / medianDuration(c.walls).Seconds()
}

// localScale is nominal over the median of the refWindow chunks from
// i-1 on, moved inwards at either end of the run.
func localScale(ds []time.Duration, nominal time.Duration, i int) float64 {
	lo := i - (refWindow-2)/2
	hi := lo + refWindow
	if lo < 0 {
		lo, hi = 0, min(refWindow, len(ds))
	}
	if hi > len(ds) {
		lo, hi = max(0, len(ds)-refWindow), len(ds)
	}
	return nominal.Seconds() / medianDuration(ds[lo:hi]).Seconds()
}

func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
