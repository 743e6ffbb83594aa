package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := tailOf(xs)
	if got.Percentile != 90 || got.Value != 90 || got.Beyond != 10 || got.Samples != 100 {
		t.Fatalf("tailOf(1..100) = %+v, want p90 = 90 with 10 beyond", got)
	}

	rng := rand.New(rand.NewSource(1))
	for n := 20; n <= 3000; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		got := tailOf(xs)
		if got.Beyond < minBeyond {
			t.Fatalf("n=%d: %+v has fewer than %d samples beyond", n, got, minBeyond)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: only %d samples exceed the reported p%v", n, beyond, got.Percentile)
		}
		// The next candidate percentile must not qualify.
		for i, p := range tailPercentiles {
			if p == got.Percentile && i+1 < len(tailPercentiles) {
				if next := tailPercentiles[i+1]; n-nearestRank(next, n) >= minBeyond {
					t.Fatalf("n=%d: p%v also has %d samples beyond, so p%v is not the highest", n, next, n-nearestRank(next, n), got.Percentile)
				}
			}
		}
	}
}

func TestTailTooFewSamples(t *testing.T) {
	got := tailOf([]float64{3, 1, 2})
	if got.Beyond >= minBeyond || got.Percentile != 50 {
		t.Fatalf("tailOf of 3 samples = %+v, want the median flagged by Beyond < %d", got, minBeyond)
	}
	if (rungOutcome{Tail: got}).passes(math.Inf(1)) {
		t.Fatal("a rung without enough samples for a tail must not pass")
	}
}

// rungOf builds a rung whose requests took okMs each, plus failed requests.
func rungOf(rate float64, n int, okMs float64, failed int) rungOutcome {
	var lat []float64
	for i := 0; i < n-failed; i++ {
		lat = append(lat, okMs)
	}
	for i := 0; i < failed; i++ {
		lat = append(lat, math.Inf(1))
	}
	return rungOutcome{Rate: rate, Tail: tailOf(lat), Failed: failed}
}

func TestCapacityCountsFailuresAsMisses(t *testing.T) {
	const limit = 500
	rungs := []rungOutcome{
		rungOf(16, 200, 40, 0),
		rungOf(28, 200, 60, 30), // fast answers, but 15% of requests failed
		rungOf(64, 200, 80, 0),
	}
	if rungs[1].passes(limit) {
		t.Fatalf("rung with 30 failed of 200 passes: tail %+v", rungs[1].Tail)
	}
	if got := capacity(rungs[:2], limit); got != 16 {
		t.Fatalf("capacity = %v, want 16: failures at 28/s must count as misses", got)
	}
	// A few failures stay beyond the reported percentile, as slow answers
	// would.
	few := rungOf(28, 200, 60, 5)
	if !few.passes(limit) {
		t.Fatalf("rung with 5 failed of 200 misses the limit: tail %+v", few.Tail)
	}
	if got := capacity([]rungOutcome{rungs[0], few}, limit); got != 28 {
		t.Fatalf("capacity = %v, want 28", got)
	}
	if got := capacity([]rungOutcome{rungOf(16, 200, 900, 0)}, limit); got != 0 {
		t.Fatalf("capacity with every rung over the limit = %v, want 0", got)
	}
	growing := rungOf(64, 200, 80, 0)
	growing.Growing = true
	if got := capacity([]rungOutcome{rungs[0], growing}, limit); got != 16 {
		t.Fatalf("capacity = %v, want 16: a growing backlog misses", got)
	}
}

func TestCompletionRateCountsOnlyAnswers(t *testing.T) {
	// 20 requests due 50 ms apart, each answered 10 ms after its due time:
	// 20 answers over 0.96 s.
	var recs []opRecord
	for i := 0; i < 20; i++ {
		due := time.Duration(i) * 50 * time.Millisecond
		recs = append(recs, opRecord{Due: due, Enq: due, Done: due + 10*time.Millisecond, OK: true})
	}
	want := 20 / 0.96
	if got := completionRate(recs); math.Abs(got-want) > 1e-9 {
		t.Fatalf("completionRate = %v, want %v", got, want)
	}
	// Failed requests answer nothing.
	recs[3].OK = false
	recs[7].OK = false
	if got := completionRate(recs); math.Abs(got-18/0.96) > 1e-9 {
		t.Fatalf("completionRate with two failures = %v, want %v", got, 18/0.96)
	}
	for i := range recs {
		recs[i].OK = false
	}
	if got := completionRate(recs); got != 0 {
		t.Fatalf("completionRate with every request failed = %v, want 0", got)
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := make([]int, 300)
	rising := make([]int, 300)
	rng := rand.New(rand.NewSource(2))
	for i := range steady {
		// Fill to a depth of about four within the first tenth, then hover.
		steady[i] = min(i/8, 4) + rng.Intn(3)
		rising[i] = i / 4
	}
	if backlogGrowing(steady) {
		t.Fatal("a queue that fills and hovers reported as growing")
	}
	if !backlogGrowing(rising) {
		t.Fatal("a queue rising for the whole rung not reported as growing")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "page", Parent: -1, Start: 0, End: 100},
		{Name: "parse", Parent: 0, Start: 10, End: 30},
		{Name: "align", Parent: 0, Start: 40, End: 90},
		{Name: "forest", Parent: 2, Start: 50, End: 70},
	}
	want := []int64{100 - 20 - 50, 20, 50 - 20, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
	var total int64
	for _, s := range got {
		total += s
	}
	if total != spans[0].End-spans[0].Start {
		t.Fatalf("self times sum to %d, want the root's %d", total, spans[0].End-spans[0].Start)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	defer srv.Close()
	// Ten requests due at once on two connections: the queue, not the
	// handler, sets the later latencies, and they must show it.
	due := make([]time.Duration, 10)
	recs, backlog := openLoop(time.Now(), due, []*http.Client{newConn(), newConn()}, nil, func(c *http.Client, i int) bool {
		_, status, err := get(context.Background(), c, srv.URL)
		return err == nil && status == http.StatusOK
	})
	if len(recs) != 10 || len(backlog) != 10 {
		t.Fatalf("%d records, %d backlog samples, want 10 each", len(recs), len(backlog))
	}
	var lat []float64
	for _, r := range recs {
		if !r.OK || r.Enq < r.Due || r.Done < r.Enq {
			t.Fatalf("bad record %+v", r)
		}
		lat = append(lat, r.latencyMs())
	}
	// Five rounds of two 20 ms requests: the median request waits for two.
	if m := median(lat); m < 40 {
		t.Fatalf("median latency %.1f ms: queueing behind busy connections was not counted", m)
	}

	stop := make(chan struct{})
	close(stop)
	recs, _ = openLoop(time.Now(), []time.Duration{time.Hour}, []*http.Client{newConn()}, stop, func(*http.Client, int) bool { return true })
	if len(recs) != 0 {
		t.Fatalf("a stopped loop dispatched %d requests", len(recs))
	}
}

// series times xs one second apart from t0.
func series(t0 time.Time, xs []float64) []timed {
	out := make([]timed, len(xs))
	for i, x := range xs {
		from := t0.Add(time.Duration(i) * time.Second)
		out[i] = timed{V: x, From: from, To: from.Add(time.Second)}
	}
	return out
}

func TestWindowedFiguresIgnoreOneBurst(t *testing.T) {
	var xs []float64
	for i := 0; i < 300; i++ {
		xs = append(xs, float64(10+i%10))
	}
	for i := 100; i < 150; i++ {
		xs[i] = 1000 // a burst spoils one window
	}
	ts := series(time.Now(), xs)
	p50, tl := windowMedian(ts, 50, nil), windowTail(ts, 50, nil)
	if len(p50.Windows) != 6 || p50.Size != 50 || len(p50.Kept) != 6 {
		t.Fatalf("windows %+v, want 6 of 50, all kept", p50)
	}
	if p50.Value > 20 || tl.Value > 20 {
		t.Fatalf("one spoiled window moved the figures: p50 %v, tail %v", p50.Value, tl.Value)
	}
	if tl.Percentile != 80 {
		t.Fatalf("tail of 50-sample windows at p%v, want p80 (10 beyond)", tl.Percentile)
	}
	// Too few samples for three full windows: three equal ones instead.
	if got := split(ts[:90], 50); len(got) != 3 || len(got[0]) != 30 {
		t.Fatalf("split of 90 into windows of 50 gave %d windows", len(got))
	}
}

// fakeSteal is a monitor whose counter rose by perSecond ticks in each
// second after t0.
func fakeSteal(t0 time.Time, perSecond []int64) *stealMonitor {
	m := &stealMonitor{cpus: 2}
	var n int64
	m.at, m.ticks = append(m.at, t0), append(m.ticks, 0)
	for i, d := range perSecond {
		n += d
		m.at = append(m.at, t0.Add(time.Duration(i+1)*time.Second))
		m.ticks = append(m.ticks, n)
	}
	return m
}

func TestStealShare(t *testing.T) {
	t0 := time.Now()
	m := fakeSteal(t0, []int64{0, 100, 20, 0})
	for _, tc := range []struct {
		from, to int
		want     float64
	}{
		{0, 1, 0}, {1, 2, 0.5}, {1, 3, 0.3}, {2, 3, 0.1}, {0, 4, 0.15},
	} {
		got := m.share(t0.Add(time.Duration(tc.from)*time.Second), t0.Add(time.Duration(tc.to)*time.Second))
		if math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("share over seconds %d-%d = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	// An interval inside one sampling period is measured over that period.
	if got := m.share(t0.Add(1200*time.Millisecond), t0.Add(1800*time.Millisecond)); got != 0.5 {
		t.Fatalf("share inside a period = %v, want 0.5", got)
	}
	if got := (*stealMonitor)(nil).share(t0, t0.Add(time.Second)); got != 0 {
		t.Fatalf("a nil monitor reports steal %v", got)
	}
}

func TestCalmSetsStolenWindowsAside(t *testing.T) {
	for _, tc := range []struct {
		stolen []float64
		want   []int
	}{
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},
		{[]float64{0, 0.3, 0, 0.01, 0}, []int{0, 2, 3, 4}},
		// Fewer than half calm: the least stolen half.
		{[]float64{0.5, 0.1, 0.2, 0, 0.4, 0.3}, []int{1, 2, 3}},
		{[]float64{0.1}, []int{0}},
	} {
		got := calm(tc.stolen)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("calm(%v) = %v, want %v", tc.stolen, got, tc.want)
		}
	}
	// A window measured while the host held the cores does not count.
	t0 := time.Now()
	xs := series(t0, []float64{10, 10, 10, 50, 50, 50, 10, 10, 10})
	steal := make([]int64, 9)
	steal[3], steal[4], steal[5] = 60, 60, 60
	w := windowMedian(xs, 3, fakeSteal(t0, steal))
	if w.Value != 10 || fmt.Sprint(w.Kept) != "[0 2]" {
		t.Fatalf("windowMedian with a stolen window = %+v, want 10 over windows 0 and 2", w)
	}
}
