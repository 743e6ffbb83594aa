package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidate percentiles for a tail figure, lowest
// first. tailOf reports the highest one that still has at least
// minBeyond samples above it.
var tailPercentiles = []float64{50, 75, 80, 90, 95, 98, 99, 99.5, 99.9}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tail is a tail-latency figure together with the percentile it was taken
// at and the sample count behind it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"` // samples ranked above the reported one
}

// nearestRank returns the 1-based nearest-rank position of percentile p in n
// samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOf returns the highest candidate percentile of xs with at least
// minBeyond samples ranked above it. Failed operations enter xs as +Inf, so
// they count as missing any latency limit. With fewer than 2*minBeyond
// samples no percentile qualifies; the median is returned with its Beyond
// count, which callers treat as too few samples.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	best := tail{Samples: n, Percentile: 50}
	r := nearestRank(50, n)
	best.Value, best.Beyond = s[r-1], n-r
	for _, p := range tailPercentiles {
		r := nearestRank(p, n)
		if n-r < minBeyond {
			break
		}
		best = tail{Value: s[r-1], Percentile: p, Samples: n, Beyond: n - r}
	}
	return best
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rungOutcome is what the capacity rule needs from one ladder rate.
type rungOutcome struct {
	Rate    float64 `json:"rate"`
	Tail    tail    `json:"tail_ms"`
	Failed  int     `json:"failed"`
	Growing bool    `json:"backlog_growing"`
}

// passes reports whether a rung meets the latency limit: its tail (failures
// included as +Inf) is under limitMs, the tail rests on enough samples, and
// its backlog did not grow.
func (r rungOutcome) passes(limitMs float64) bool {
	return r.Tail.Beyond >= minBeyond && r.Tail.Value <= limitMs && !r.Growing
}

// capacity returns the highest rate among rungs that passes the limit; 0 if
// none does.
func capacity(rungs []rungOutcome, limitMs float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.passes(limitMs) && r.Rate > best {
			best = r.Rate
		}
	}
	return best
}

// completionRate is the successful answers per second of an open-loop
// rung, from its first due time to its last answer: the rate the server
// delivered. Failed requests deliver nothing, so they count as misses here
// too. With no answer it is 0.
func completionRate(recs []opRecord) float64 {
	ok := 0
	var last time.Duration
	for _, r := range recs {
		if r.OK {
			ok++
			last = max(last, r.Done)
		}
	}
	if ok == 0 || last <= recs[0].Due {
		return 0
	}
	return float64(ok) / (last - recs[0].Due).Seconds()
}

// backlogGrowing reports whether an open-loop backlog, sampled at every
// dispatch of a rung, keeps rising: its mean over the last third of the rung
// exceeds its mean over the middle third by more than a twentieth of the
// rung's dispatches (at least eight requests). Arrivals at rate r times the
// service rate raise the queue by 1-1/r per dispatch, so a rate more than
// about 18% over capacity is caught. The first third is left out:
// every rung starts from an empty queue, and filling to a steady depth is
// not growth. Under a rate above capacity the queue rises for the whole rung.
func backlogGrowing(samples []int) bool {
	n := len(samples)
	if n < 6 {
		return false
	}
	k := n / 3
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	middle, last := mean(samples[k:2*k]), mean(samples[n-k:])
	return last-middle > math.Max(8, 0.05*float64(n))
}

// timed is one sample together with the interval it was measured over.
type timed struct {
	V        float64
	From, To time.Time
}

func values(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.V
	}
	return out
}

// windowed is a figure taken over each window of consecutive samples and
// reported as the median over the calm windows (see calm). A burst of
// interference on a shared machine spoils a window, not the figure; windows
// during which the host took the machine's cores are set aside; fixed-size
// windows keep a tail at the same percentile whatever the run's sample
// count.
type windowed struct {
	Value      float64   `json:"value"`
	Windows    []float64 `json:"windows"`
	Stolen     []float64 `json:"steal_share"`  // per window
	Kept       []int     `json:"windows_kept"` // the windows the value is the median of
	Size       int       `json:"window_samples"`
	Percentile float64   `json:"percentile,omitempty"` // of a tail, in every window
}

// add appends one window's figure, measured from from to to; t gives its
// sample count and, for a tail, its percentile.
func (w *windowed) add(v float64, t tail, from, to time.Time, m *stealMonitor) {
	w.Windows = append(w.Windows, v)
	w.Stolen = append(w.Stolen, m.share(from, to))
	w.Size, w.Percentile = t.Samples, t.Percentile
}

// settle sets the value: the median over the calm windows.
func (w *windowed) settle() {
	w.Kept = calm(w.Stolen)
	kept := make([]float64, len(w.Kept))
	for i, k := range w.Kept {
		kept[i] = w.Windows[k]
	}
	w.Value = median(kept)
}

// calmMedian is the median of single samples, each its own window.
func calmMedian(xs []timed, m *stealMonitor) windowed {
	var w windowed
	for _, x := range xs {
		w.add(x.V, tail{Samples: 1}, x.From, x.To, m)
	}
	w.settle()
	return w
}

// minWindows is the fewest windows a figure is taken over.
const minWindows = 3

// split cuts xs, in time order, into consecutive windows of size samples
// and drops a trailing partial window. With fewer than minWindows full
// windows it cuts xs into minWindows equal windows instead.
func split(xs []timed, size int) [][]timed {
	if len(xs)/size < minWindows {
		size = max(len(xs)/minWindows, 1)
	}
	var out [][]timed
	for i := 0; i+size <= len(xs); i += size {
		out = append(out, xs[i:i+size])
	}
	return out
}

// interval is the interval a window's samples were measured over.
func interval(win []timed) (time.Time, time.Time) {
	from, to := win[0].From, win[0].To
	for _, x := range win {
		if x.From.Before(from) {
			from = x.From
		}
		if x.To.After(to) {
			to = x.To
		}
	}
	return from, to
}

// windowMedian is the median over calm windows of size samples of the
// samples' median.
func windowMedian(xs []timed, size int, m *stealMonitor) windowed {
	var w windowed
	for _, win := range split(xs, size) {
		from, to := interval(win)
		w.add(median(values(win)), tail{Samples: len(win)}, from, to, m)
	}
	w.Percentile = 0
	w.settle()
	return w
}

// windowTail is the median over calm windows of size samples of each
// window's tail (tailOf).
func windowTail(xs []timed, size int, m *stealMonitor) windowed {
	var w windowed
	for _, win := range split(xs, size) {
		from, to := interval(win)
		t := tailOf(values(win))
		w.add(t.Value, t, from, to, m)
	}
	w.settle()
	return w
}
