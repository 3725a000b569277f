package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"syscall"
	"time"
)

// The host's speed wanders: on a shared 2-core VM a fixed job ran
// between 1.2 and 2.1 ms per repetition from one two-second stretch to
// the next, and runs minutes apart differed by 20% and more, with little
// steal time (README.md, Caveats). A run therefore measures the host's
// speed as it goes, with calJob, and reports its latencies scaled to a
// reference speed: an operation's latency is multiplied by
// calRef ÷ (the job's median time in the calBlock it ran in), and the
// set-up time by calRef ÷ (the job's median time before the builds). The
// job is
// the benchmark's own code, uses none of the repository's, and
// allocates nothing, so a change to the system cannot change its work.
const (
	// calEvery is how often the client runs the job between operations.
	calEvery = 50 * time.Millisecond
	// calBlock is the stretch over which the host's speed is taken as
	// constant.
	calBlock = time.Second
	// calRef is the job's time at the reference speed: roughly its
	// median on the machine the benchmark was written on, so a ref-ms
	// is close to a millisecond there.
	calRef = 2 * time.Millisecond
)

// calJob is a fixed piece of work that exercises what the workloads
// spend their time on: hashed lookups over a working set larger than
// the caches close to the core, hashing and sorting, and system calls.
type calJob struct {
	keys  []string
	index map[string]int
	buf   []byte
	ints  []int
	work  []int
	fds   [2]int // a socket pair, or -1s when none could be made
	msg   []byte
	in    []byte
	sink  int
}

func newCalJob() *calJob {
	rng := rand.New(rand.NewSource(1))
	c := &calJob{index: map[string]int{}, buf: make([]byte, 32<<10), ints: make([]int, 4096), work: make([]int, 4096),
		fds: [2]int{-1, -1}, msg: make([]byte, 256), in: make([]byte, 256)}
	for i := 0; i < 50000; i++ {
		k := fmt.Sprintf("cal-%d-%d", i, rng.Int63())
		c.keys = append(c.keys, k)
		c.index[k] = i
	}
	rng.Read(c.buf)
	for i := range c.ints {
		c.ints[i] = rng.Int()
	}
	if fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0); err == nil {
		c.fds = [2]int{fds[0], fds[1]}
	}
	return c
}

// run does the job once and returns how long it took.
func (c *calJob) run() time.Duration {
	t0 := time.Now()
	for i := 0; i < 6000; i++ {
		c.sink += c.index[c.keys[(i*7919)%len(c.keys)]]
	}
	sum := sha256.Sum256(c.buf)
	c.sink += int(sum[0])
	copy(c.work, c.ints)
	sort.Ints(c.work)
	if c.fds[0] >= 0 {
		for i := 0; i < 40; i++ {
			_, _ = syscall.Write(c.fds[0], c.msg)
			_, _ = syscall.Read(c.fds[1], c.in)
		}
	}
	return time.Since(t0)
}

func (c *calJob) close() {
	if c.fds[0] >= 0 {
		syscall.Close(c.fds[0])
		syscall.Close(c.fds[1])
	}
}

// hostSpeed is the calibration record of one window: the job's times,
// grouped by the calBlock of the window they ran in.
type hostSpeed struct {
	blocks map[int]sample // block -> job times in ms
}

func (h *hostSpeed) add(at, d time.Duration) {
	if h.blocks == nil {
		h.blocks = map[int]sample{}
	}
	b := int(at / calBlock)
	h.blocks[b] = append(h.blocks[b], float64(d)/1e6)
}

// scale returns, for each block, the factor that converts a latency
// measured in it into ref-ms: calRef over the block's median job time.
// A block without a job time (the window's last instant) uses the
// window's median.
func (h *hostSpeed) scale() func(at time.Duration) float64 {
	all := h.all()
	ref := float64(calRef) / 1e6
	overall := ref / all.q(0.5)
	factors := map[int]float64{}
	for b, s := range h.blocks {
		factors[b] = ref / s.q(0.5)
	}
	return func(at time.Duration) float64 {
		if f, ok := factors[int(at/calBlock)]; ok {
			return f
		}
		return overall
	}
}

// all returns every job time of the window.
func (h *hostSpeed) all() sample {
	var out sample
	for _, s := range h.blocks {
		out = append(out, s...)
	}
	return out
}
