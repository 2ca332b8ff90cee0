package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on shared machines, where two things other than the
// code move a wall-clock time. Other threads and other tenants take the
// CPU away: a descheduled operation or a vCPU lost to the hypervisor
// (steal) reads slow by however long it waited. And the speed of the CPU
// itself moves by up to 2× within minutes as other tenants load the
// host's cores and caches. Operations are therefore timed in process CPU
// time (stopwatch), which leaves out every wait for a CPU, and reported in
// reference milliseconds: an operation's CPU time divided by the CPU time
// of a fixed reference kernel measured right before, during and right
// after it, times refUnit (refClock). The kernel is harness code no change to the program can
// touch, so a faster operation reads faster while a slower or busier
// machine does not. On a quiet machine of the kind the bounds were set on
// (a 2-vCPU Xeon VM) one unit takes about refUnit, so reference and wall
// milliseconds agree there for an operation that never waits.
const (
	refUnit = time.Millisecond
	// refFactorizations per unit: dense Cholesky factorizations of a
	// refDim×refDim matrix, about 1 ms.
	refFactorizations = 7
	refDim            = 96
)

// watchCPU is the CPU time, in ns, the reference watchers have spent in
// their factorizations; a stopwatch leaves it out of what it times.
var watchCPU atomic.Int64

// stopwatch times an interval in wall time and in the CPU time of the
// whole process, less the watchers' share: the operations of the daemon
// and the shard workers run on several goroutines and threads.
type stopwatch struct {
	wall       time.Time
	cpu, watch time.Duration
}

func startStopwatch() stopwatch {
	return stopwatch{wall: time.Now(), cpu: processCPU(), watch: time.Duration(watchCPU.Load())}
}

// elapsed returns the wall time and the CPU time since the start.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	cpu = processCPU() - s.cpu - (time.Duration(watchCPU.Load()) - s.watch)
	return time.Since(s.wall), cpu
}

// refClock times the reference kernel between operations, and during them
// through a watcher goroutine: every watchEvery it asks for the thread and
// times one factorization. The machine's speed moves within tens of
// milliseconds (consecutive 1 ms units correlate at 0.9, units 40 ms apart
// at 0.56), so a long operation is scaled by the speed the machine had
// while it ran, not only at its ends. With one scheduler thread and an
// operation that does not block, the watcher gets the thread at each
// forced preemption, every 10–20 ms, for about 1% of the time. Units are
// timed in the CPU time of the sampling thread: the kernel neither blocks
// nor makes a system call, so it stays on its thread for a sample.
type refClock struct {
	buf     []float64 // the matrix and its factor
	prev    time.Duration
	samples []float64 // ms

	// The set-up unit's buffer, last sample and samples (ms).
	sortBuf      []float64
	setupPrev    time.Duration
	setupSamples []float64

	mu       sync.Mutex
	watching bool
	inside   []time.Duration // factorizations timed during the current operation
	stop     chan struct{}
	done     chan struct{}
}

// watchEvery is how often the watcher asks for the thread.
const watchEvery = 10 * time.Millisecond

// newRefClock starts the clock's watcher; close stops it.
func newRefClock() *refClock {
	c := &refClock{
		buf:     make([]float64, 2*refDim*refDim),
		sortBuf: make([]float64, setupSortLen),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.watch()
	return c
}

func (c *refClock) watch() {
	defer close(c.done)
	buf := make([]float64, 2*refDim*refDim)
	tick := time.NewTicker(watchEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		on := c.watching
		c.mu.Unlock()
		if !on {
			continue
		}
		start := threadCPU()
		cholesky(buf)
		d := threadCPU() - start
		watchCPU.Add(int64(d))
		c.mu.Lock()
		if c.watching {
			c.inside = append(c.inside, d)
		}
		c.mu.Unlock()
	}
}

// close stops the watcher and waits for it to exit.
func (c *refClock) close() {
	close(c.stop)
	<-c.done
}

// sample times one unit.
func (c *refClock) sample() time.Duration {
	start := threadCPU()
	for i := 0; i < refFactorizations; i++ {
		cholesky(c.buf)
	}
	d := threadCPU() - start
	c.samples = append(c.samples, float64(d)/float64(time.Millisecond))
	return d
}

// around runs f between two reference samples and returns the factor that
// turns CPU time measured inside f into reference time: refUnit over the
// machine's speed while f ran, the mean time per factorization of the two
// samples and of those the watcher took during f. The sample after one
// call is the sample before the next, so a loop of operations pays one
// sample per operation.
func (c *refClock) around(f func() error) (float64, error) {
	if c.prev == 0 {
		c.prev = c.sample()
	}
	before := c.prev
	c.mu.Lock()
	c.watching, c.inside = true, c.inside[:0]
	c.mu.Unlock()
	err := f()
	c.mu.Lock()
	c.watching = false
	per := float64(before) / refFactorizations
	n := 1.0
	for _, d := range c.inside {
		per += float64(d)
		n++
	}
	c.mu.Unlock()
	c.prev = c.sample()
	per = (per + float64(c.prev)/refFactorizations) / (n + 1)
	return float64(refUnit) / (per * refFactorizations), err
}

// unitMS is the median CPU time of one unit over the run: how fast the
// machine was, recorded so a reader can tell a slow machine from slow
// code. NaN for a clock never sampled.
func (c *refClock) unitMS() float64 { return median(c.samples) }

// Set-up builds objects: it allocates, hashes and branches more than it
// computes, and the host's slow spells slowed such code by about 1.25×
// while they slowed the Cholesky unit by 1.6–1.9×, so scaling a set-up by
// that unit turned each slow spell into a faster set-up. Set-up is scaled
// by a unit of its own kind instead: setupSorts sorts of a fixed
// pseudo-random slice of setupSortLen numbers, about 1 ms.
const (
	setupSorts   = 3
	setupSortLen = 3000
)

// setupSample times one set-up unit.
func (c *refClock) setupSample() time.Duration {
	start := threadCPU()
	for i := 0; i < setupSorts; i++ {
		sortKernel(c.sortBuf)
	}
	d := threadCPU() - start
	c.setupSamples = append(c.setupSamples, float64(d)/float64(time.Millisecond))
	return d
}

// setupAround runs f between two set-up units and returns the factor that
// turns CPU time measured inside f into reference time. As in around,
// the sample after one call is the sample before the next.
func (c *refClock) setupAround(f func() error) (float64, error) {
	if c.setupPrev == 0 {
		c.setupPrev = c.setupSample()
	}
	before := c.setupPrev
	err := f()
	c.setupPrev = c.setupSample()
	return 2 * float64(refUnit) / float64(before+c.setupPrev), err
}

// setupUnitMS is the median CPU time of one set-up unit over the run.
func (c *refClock) setupUnitMS() float64 { return median(c.setupSamples) }

// sortKernel refills buf with the same xorshift sequence and sorts it.
func sortKernel(buf []float64) {
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = float64(x >> 11)
	}
	sort.Float64s(buf)
}

// cholesky refills buf's first half with a fixed symmetric positive
// definite matrix and factors it into the second half.
func cholesky(buf []float64) {
	n := refDim
	a, l := buf[:n*n], buf[n*n:]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 1 / float64(1+i+j)
			if i == j {
				v += float64(n)
			}
			a[i*n+j] = v
		}
	}
	for j := 0; j < n; j++ {
		s := a[j*n+j]
		for k := 0; k < j; k++ {
			s -= l[j*n+k] * l[j*n+k]
		}
		d := math.Sqrt(s)
		l[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s / d
		}
	}
}
