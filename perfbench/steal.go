package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor can take the guest's cores for other
// guests; Linux counts that time as steal. The shared host this benchmark
// was tuned on has stretches of seconds to minutes in which it takes a
// tenth of the guest's CPU time and slows every phase by 20–40%. A
// stealMonitor samples the steal counter through the run, so each figure
// can be taken over the windows measured while the host left the guest its
// cores.

// stealSampleEvery is the monitor's sampling period; the counter itself
// moves in 10 ms ticks.
const stealSampleEvery = 20 * time.Millisecond

// userHZ is the unit of /proc/stat: clock ticks per second (USER_HZ, 100 on
// every Linux architecture the toolchain targets).
const userHZ = 100

// calmSteal is the most steal, as a share of the machine's CPU time over a
// window, under which the window counts as calm.
const calmSteal = 0.02

type stealMonitor struct {
	mu    sync.Mutex
	at    []time.Time
	ticks []int64
	cpus  int
	stop  chan struct{}
	done  chan struct{}
}

// startStealMonitor starts sampling; it returns nil where /proc/stat has no
// steal counter, and a nil monitor reports no steal.
func startStealMonitor() *stealMonitor {
	if _, ok := readSteal(); !ok {
		return nil
	}
	m := &stealMonitor{cpus: runtime.NumCPU(), stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMonitor) sample() {
	n, ok := readSteal()
	if !ok {
		return
	}
	m.mu.Lock()
	m.at = append(m.at, time.Now())
	m.ticks = append(m.ticks, n)
	m.mu.Unlock()
}

// close stops sampling and waits for the sampler to end.
func (m *stealMonitor) close() {
	if m == nil {
		return
	}
	close(m.stop)
	<-m.done
}

// share is the share of the machine's CPU time stolen between from and to,
// measured between the last sample at or before from and the first at or
// after to.
func (m *stealMonitor) share(from, to time.Time) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.at)
	if n < 2 {
		return 0
	}
	i := sort.Search(n, func(k int) bool { return m.at[k].After(from) }) - 1
	j := sort.Search(n, func(k int) bool { return !m.at[k].Before(to) })
	i, j = max(i, 0), min(j, n-1)
	secs := m.at[j].Sub(m.at[i]).Seconds()
	if j <= i || secs <= 0 {
		return 0
	}
	return float64(m.ticks[j]-m.ticks[i]) / (secs * userHZ * float64(m.cpus))
}

// readSteal returns the machine-wide steal counter of /proc/stat.
func readSteal() (int64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			n, err := strconv.ParseInt(fields[8], 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// calm returns the indices of the figures to take a median over, given the
// steal share of each one's interval: every calm one, or, when fewer than
// half are calm, the least stolen half.
func calm(stolen []float64) []int {
	idx := make([]int, len(stolen))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return stolen[idx[a]] < stolen[idx[b]] })
	keep := (len(stolen) + 1) / 2
	for keep < len(idx) && stolen[idx[keep]] <= calmSteal {
		keep++
	}
	out := idx[:keep]
	sort.Ints(out)
	return out
}
