package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opRecord is one open-loop operation, times as offsets from the loop start.
type opRecord struct {
	Due, Enq, Done time.Duration
	OK             bool
}

// latencyMs is the operation's latency from its due time; a failed operation
// is +Inf, so it misses any limit.
func (r opRecord) latencyMs() float64 {
	if !r.OK {
		return math.Inf(1)
	}
	return ms(r.Done - r.Due)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop sends operation i at start+due[i], whatever the server is doing:
// a dispatcher puts due operations on a queue that the given clients (one
// connection each) drain. It stops dispatching when stop is closed. It
// returns the records of every dispatched operation, each sent and
// answered, plus the backlog (dispatched but unfinished operations) seen at
// each dispatch.
func openLoop(start time.Time, due []time.Duration, conns []*http.Client, stop <-chan struct{}, send func(c *http.Client, i int) bool) ([]opRecord, []int) {
	recs := make([]opRecord, len(due))
	backlog := make([]int, 0, len(due))
	queue := make(chan int, len(due)) // one slot per send: the dispatcher never blocks
	var finished atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				ok := send(c, i)
				recs[i].Done = time.Since(start)
				recs[i].OK = ok
				finished.Add(1)
			}
		}(c)
	}
	n := 0
dispatch:
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				break dispatch
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				break dispatch
			default:
			}
		}
		recs[i].Due = d
		recs[i].Enq = time.Since(start)
		backlog = append(backlog, i-int(finished.Load()))
		queue <- i
		n++
	}
	close(queue)
	wg.Wait()
	return recs[:n], backlog
}

// lateness summarizes how far behind schedule the dispatcher itself ran:
// enqueue time minus due time, independent of the server.
type lateness struct {
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// generatorLateLimitMs bounds the dispatcher's own p90 lateness. Beyond it
// the generator, not the server, set the schedule, and the run is invalid.
// A burst on a shared machine delays a few dispatches, which the latency
// figures' windows absorb; a generator that fell behind is late for many.
const generatorLateLimitMs = 20

func latenessOf(recs []opRecord) lateness {
	var xs []float64
	var l lateness
	for _, r := range recs {
		x := ms(r.Enq - r.Due)
		xs = append(xs, x)
		l.MaxMs = math.Max(l.MaxMs, x)
	}
	if len(xs) > 0 {
		sort.Float64s(xs)
		l.P90Ms = xs[nearestRank(90, len(xs))-1]
		l.P99Ms = xs[nearestRank(99, len(xs))-1]
	}
	return l
}

// counts tallies attempted and failed operations.
type counts struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

func (c *counts) add(ok bool) {
	c.Attempted++
	if !ok {
		c.Failed++
	}
}

func (c *counts) merge(o counts) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
}

// ---- align: open-loop Poisson /v1/align over a ladder of rates ----

// rung is one ladder step: a fixed Poisson rate held for a fixed time in
// every slice of the run.
type rung struct {
	Rate    float64
	Seconds float64
}

// rungReport pools one rate over the slices it ran in.
type rungReport struct {
	rungOutcome
	Slices     int       `json:"slices"`
	Answered   []float64 `json:"answered_per_s"` // completionRate, per slice
	P50Ms      float64   `json:"p50_ms"`
	Attempted  int       `json:"attempted"`
	Late       lateness  `json:"generator_lateness"`
	MaxBacklog int       `json:"max_backlog"`
}

type ladderResult struct {
	P50      windowed       `json:"p50_ms"`  // lowest rung
	Tail     windowed       `json:"tail_ms"` // lowest rung
	Rungs    []rungReport   `json:"rungs"`
	LimitMs  float64        `json:"limit_ms"`
	Passed   float64        `json:"highest_passing_rate"` // capacity rule over the pooled rungs
	Edges    windowed       `json:"edge_answered_per_s"`  // per slice, answered per second at its edge rung
	Capacity float64        `json:"capacity_qps"`         // Edges.Value
	Counts   counts         `json:"counts"`
	Sent     int            `json:"pages_sent"`
	Bytes    int64          `json:"html_bytes"`
	Invalid  string         `json:"invalid,omitempty"`
	Bodies   map[int][]byte `json:"-"` // sampled page index → response body
}

// latencyWindow is the window, in samples, over which /v1/align latency
// figures are taken (see windowed): 45 samples put a tail at p75.
const latencyWindow = 45

// readWindow is the window, in reads of one kind, over which read figures
// are taken: 100 put a tail at p90. A read is slow when it meets a
// re-alignment, fast otherwise; p90 lies well inside the slow mode, where a
// lower percentile would sit on the boundary between the two and jump.
const readWindow = 100

// alignLimitMs is the tail-latency limit of the capacity rule: over ten
// times the cost of a heavy page, so only queueing can break it.
const alignLimitMs = 1000

// ladder drives /v1/align one slice at a time. Each page is sent once, so
// the result cache never hits. Responses of every sampleEvery-th page are
// kept for the correctness oracle.
type ladder struct {
	srv         *server
	conns       []*http.Client
	sampleEvery int
	steal       *stealMonitor
	res         ladderResult
	lat         [][]timed    // per rung, latencies in time order
	recs        [][]opRecord // per rung, dispatched records
	backlog     []int        // per rung, the deepest backlog seen
	growing     []bool       // per rung, whether its backlog grew in some slice
	mu          sync.Mutex
}

// newLadder sends the unmeasured warm-up pages: lazy set-up (the first
// classifier compilation, heap growth) is paid once per process, not per
// request.
func newLadder(ctx context.Context, srv *server, in inputs, pl plan, sampleEvery int, steal *stealMonitor) *ladder {
	n := len(pl.Ladder)
	l := &ladder{
		srv: srv, conns: []*http.Client{newConn(), newConn()}, sampleEvery: sampleEvery, steal: steal,
		res:     ladderResult{LimitMs: alignLimitMs, Bodies: map[int][]byte{}, Rungs: make([]rungReport, n)},
		lat:     make([][]timed, n),
		recs:    make([][]opRecord, n),
		backlog: make([]int, n),
		growing: make([]bool, n),
	}
	for k, r := range pl.Ladder {
		l.res.Rungs[k].Rate = r.Rate
	}
	for _, pg := range in.Warm {
		_, status, err := post(ctx, l.conns[0], srv.base+"/v1/align", "text/html", []byte(pg.HTML))
		l.res.Counts.add(err == nil && status == http.StatusOK)
		l.res.Bytes += int64(len(pg.HTML))
	}
	return l
}

// slice runs slice s of the ladder: its rungs lowest rate first, stopping
// after the first rung that misses the limit, since every higher rate would
// too. The last rung run is the slice's edge: offered more than the server
// can take, or the top rung if all passed.
func (l *ladder) slice(ctx context.Context, in inputs, s int) {
	base := 0
	for _, rungs := range in.LadderDue[:s] {
		for _, due := range rungs {
			base += len(due)
		}
	}
	var edge timed
	for k, due := range in.LadderDue[s] {
		first := base
		base += len(due)
		start := time.Now()
		recs, backlog := openLoop(start, due, l.conns, nil, func(c *http.Client, i int) bool {
			pg := in.Cold[first+i]
			body, status, err := post(ctx, c, l.srv.base+"/v1/align", "text/html", []byte(pg.HTML))
			ok := err == nil && status == http.StatusOK
			if ok && (first+i)%l.sampleEvery == 0 {
				l.mu.Lock()
				l.res.Bodies[first+i] = body
				l.mu.Unlock()
			}
			return ok
		})
		rep := &l.res.Rungs[k]
		rep.Slices++
		edge = timed{V: completionRate(recs), From: start, To: start}
		rep.Answered = append(rep.Answered, edge.V)
		var lat []timed
		for i, rec := range recs {
			l.res.Bytes += int64(len(in.Cold[first+i].HTML))
			l.res.Counts.add(rec.OK)
			lat = append(lat, timed{V: rec.latencyMs(), From: start.Add(rec.Due), To: start.Add(rec.Done)})
			if end := start.Add(rec.Done); end.After(edge.To) {
				edge.To = end
			}
		}
		for _, b := range backlog {
			l.backlog[k] = max(l.backlog[k], b)
		}
		grew := backlogGrowing(backlog)
		l.growing[k] = l.growing[k] || grew
		l.lat[k] = append(l.lat[k], lat...)
		l.recs[k] = append(l.recs[k], recs...)
		// A rung of one slice holds too few requests for a tail, so within
		// a slice the ladder stops at the first rung on which any request
		// missed the limit or the backlog grew.
		missed := grew
		for _, x := range lat {
			missed = missed || x.V > alignLimitMs
		}
		if missed {
			break
		}
	}
	l.res.Edges.add(edge.V, tail{Samples: 1}, edge.From, edge.To, l.steal)
}

// result pools every rung over the slices it ran in.
func (l *ladder) result() ladderResult {
	res := l.res
	var outcomes []rungOutcome
	for k := range res.Rungs {
		rep := &res.Rungs[k]
		if rep.Slices == 0 {
			continue
		}
		var okLat []float64
		for _, x := range values(l.lat[k]) {
			if !math.IsInf(x, 1) {
				okLat = append(okLat, x)
			} else {
				rep.Failed++
			}
		}
		rep.Attempted = len(l.lat[k])
		rep.Tail = tailOf(values(l.lat[k]))
		rep.P50Ms = median(okLat)
		rep.Growing = l.growing[k]
		rep.MaxBacklog = l.backlog[k]
		rep.Late = latenessOf(l.recs[k])
		res.Sent += rep.Attempted
		if rep.Late.P90Ms > generatorLateLimitMs && res.Invalid == "" {
			res.Invalid = fmt.Sprintf("generator fell behind at %.0f/s: p90 lateness %.1f ms", rep.Rate, rep.Late.P90Ms)
		}
		outcomes = append(outcomes, rep.rungOutcome)
	}
	res.P50 = windowMedian(l.lat[0], latencyWindow, l.steal)
	res.Tail = windowTail(l.lat[0], latencyWindow, l.steal)
	res.Passed = capacity(outcomes, alignLimitMs)
	// What the server answered at each slice's edge is its capacity, as a
	// figure that moves with it rather than a step of the ladder.
	res.Edges.settle()
	res.Capacity = res.Edges.Value
	return res
}

// ---- batch: closed-loop /v1/align/batch over a cached working set ----

const (
	batchPages   = 8 // pages per /v1/align/batch request
	batchClients = 2 // closed-loop clients, one connection each
	zipfS        = 1.1
	// maxBatchRequests bounds each client's pre-drawn block sequence; a
	// batch takes milliseconds, so no run gets near it.
	maxBatchRequests = 20_000
)

type batchPlan struct {
	Blocks  int     // working-set size in blocks
	Seconds float64 // closed-loop measuring time
}

type batchResult struct {
	Blocks  int      `json:"blocks"`
	P50     windowed `json:"p50_ms"`
	Tail    windowed `json:"tail_ms"`
	Goodput windowed `json:"goodput_docs_per_s"`
	Docs    int      `json:"docs_returned"`
	Elapsed float64  `json:"elapsed_s"`
	Counts  counts   `json:"counts"`
	Bytes   int64    `json:"html_bytes"` // the working set's HTML, each page once
	Warm    [][]byte `json:"-"`          // warm-up response per block
	Hot     [][]byte `json:"-"`          // last measured response per block, nil if unseen
}

// batchWindow is the window, in requests, over which batch figures are
// taken: 80 put a tail at p80.
const batchWindow = 80

// closedOp is one closed-loop request.
type closedOp struct {
	sent, done time.Time
	docs       int
	ok         bool
}

type batchItem struct {
	ID   string `json:"id"`
	HTML string `json:"html"`
}

func batchBody(block []page) []byte {
	req := struct {
		Pages []batchItem `json:"pages"`
	}{}
	for _, pg := range block {
		req.Pages = append(req.Pages, batchItem{ID: pg.ID, HTML: pg.HTML})
	}
	data, _ := json.Marshal(req) // strings only: cannot fail
	return data
}

// documentsOf decodes the top-level document count of a /v1/align/batch
// answer. The full answers of sampled blocks are checked against the oracle.
func documentsOf(body []byte) (int, bool) {
	var env struct {
		Result *struct {
			Documents *int `json:"documents"`
		} `json:"result"`
	}
	if json.Unmarshal(body, &env) != nil || env.Result == nil || env.Result.Documents == nil {
		return 0, false
	}
	return *env.Result.Documents, true
}

// batchLoop drives /v1/align/batch one slice at a time.
type batchLoop struct {
	srv    *server
	steal  *stealMonitor
	bodies [][]byte
	seq    [batchClients][]int
	pos    [batchClients]int // next index into each client's sequence
	conns  [batchClients]*http.Client
	res    batchResult
	slices [][]closedOp // per slice, in send order
}

// newBatch sends every block of the working set once, which fills the
// result cache.
func newBatch(ctx context.Context, srv *server, in inputs, steal *stealMonitor) *batchLoop {
	bl := &batchLoop{
		srv: srv, steal: steal, seq: in.BlockSeq, bodies: make([][]byte, len(in.Hot)),
		res: batchResult{Blocks: len(in.Hot), Warm: make([][]byte, len(in.Hot)), Hot: make([][]byte, len(in.Hot))},
	}
	for c := range bl.conns {
		bl.conns[c] = newConn()
	}
	for b, block := range in.Hot {
		bl.bodies[b] = batchBody(block)
	}
	for b, block := range in.Hot {
		body := bl.send(ctx, bl.conns[0], b)
		_, ok := documentsOf(body)
		bl.res.Counts.add(ok)
		bl.res.Warm[b] = body
		for _, pg := range block {
			bl.res.Bytes += int64(len(pg.HTML))
		}
	}
	return bl
}

// send returns the answer of a successful request, nil otherwise.
func (bl *batchLoop) send(ctx context.Context, c *http.Client, b int) []byte {
	body, status, err := post(ctx, c, bl.srv.base+"/v1/align/batch", "application/json", bl.bodies[b])
	if err != nil || status != http.StatusOK {
		return nil
	}
	return body
}

// slice runs batchClients closed loops for the given time, each picking
// blocks from its Zipf sequence where the previous slice left it.
func (bl *batchLoop) slice(ctx context.Context, seconds float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var ops []closedOp
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for c := range bl.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ; bl.pos[c] < len(bl.seq[c]) && time.Now().Before(deadline); bl.pos[c]++ {
				b := bl.seq[c][bl.pos[c]]
				t0 := time.Now()
				body := bl.send(ctx, bl.conns[c], b)
				op := closedOp{sent: t0, done: time.Now()}
				op.docs, op.ok = documentsOf(body)
				mu.Lock()
				ops = append(ops, op)
				if op.ok {
					bl.res.Hot[b] = body
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(ops, func(i, j int) bool { return ops[i].sent.Before(ops[j].sent) })
	bl.slices = append(bl.slices, ops)
}

// result pools the slices.
func (bl *batchLoop) result() batchResult {
	res := bl.res
	var lat []timed
	for _, ops := range bl.slices {
		if len(ops) == 0 {
			continue
		}
		last := ops[0].done
		for _, op := range ops {
			res.Counts.add(op.ok)
			res.Docs += op.docs
			x := timed{V: math.Inf(1), From: op.sent, To: op.done}
			if op.ok {
				x.V = ms(op.done.Sub(op.sent))
			}
			lat = append(lat, x)
			if op.done.After(last) {
				last = op.done
			}
		}
		res.Elapsed += last.Sub(ops[0].sent).Seconds()
	}
	res.P50 = windowMedian(lat, batchWindow, bl.steal)
	res.Tail = windowTail(lat, batchWindow, bl.steal)
	res.Goodput = windowGoodput(bl.slices, batchWindow, bl.steal)
	return res
}

// windowGoodput is the median over windows of size consecutive requests of
// the documents answered per second of the window's span. Windows never
// span two slices, whose gap is no serving time; a slice with fewer than
// size requests is one window.
func windowGoodput(slices [][]closedOp, size int, m *stealMonitor) windowed {
	var w windowed
	for _, ops := range slices {
		n := size
		if len(ops) < size {
			n = len(ops)
		}
		for i := 0; n > 0 && i+n <= len(ops); i += n {
			win := ops[i : i+n]
			end, docs := win[0].done, 0
			for _, op := range win {
				docs += op.docs
				if op.done.After(end) {
					end = op.done
				}
			}
			w.add(float64(docs)/end.Sub(win[0].sent).Seconds(), tail{Samples: n}, win[0].sent, end, m)
		}
	}
	w.settle()
	return w
}

// ---- recrawl: streaming /v1/ingest with open-loop reads beside it ----

type recrawlPlan struct {
	Pages     int     // pages per crawl
	Rounds    int     // re-crawls after the cold crawl
	EditShare float64 // share of pages edited per re-crawl
	Queries   int     // read query battery size
	ReadRate  float64 // open-loop reads per second beside ingest
	// ReadSeconds bounds the read schedule, split evenly over the crawl
	// groups; a group's reads stop when its last re-crawl is in, well
	// before.
	ReadSeconds float64
}

type ingestLine struct {
	PageID string `json:"page_id"`
	HTML   string `json:"html"`
}

type ingestReply struct {
	PageID    string `json:"page_id"`
	Documents []struct {
		DocID string `json:"doc_id"`
	} `json:"documents"`
	Reused        int    `json:"reused"`
	Realigned     int    `json:"realigned"`
	PersistErrors int64  `json:"persist_errors"`
	Error         string `json:"error"`
}

type recrawlResult struct {
	Pages      int      `json:"pages_per_crawl"`
	Crawls     int      `json:"crawls"`
	Groups     int      `json:"groups"`
	Docs       int      `json:"docs_ingested"`
	Reused     int      `json:"reused"`
	Realigned  int      `json:"realigned"`
	IngestSecs float64  `json:"ingest_s"`
	DocsPerSec windowed `json:"ingest_docs_per_s"`   // one window per page group
	PageTail   windowed `json:"ingest_page_tail_ms"` // one window per page group
	SearchP50  windowed `json:"search_p50_ms"`
	SearchTail windowed `json:"search_tail_ms"`
	FactsTail  windowed `json:"facts_tail_ms"`
	ReadLate   lateness `json:"read_generator_lateness"`
	Counts     counts   `json:"counts"`
	Bytes      int64    `json:"html_bytes"`
	Invalid    string   `json:"invalid,omitempty"`
}

// recrawlRun ingests the crawl one page group at a time, one group per
// slice: each group's cold crawl, then its re-crawls, every version one
// streaming /v1/ingest request on one connection, page by page. Each group
// holds the crawl's cost mix, so the ingest figures are taken per group and
// reported as the median over the groups. While a group's re-crawls run, the
// second connection sends open-loop reads: they meet the upserts and
// retractions of a live re-crawl, not the cold crawl's saturated CPU, whose
// scheduling noise would drown the read path.
type recrawlRun struct {
	srv            *server
	steal          *stealMonitor
	conn, readConn *http.Client
	res            recrawlResult
	search, facts  []timed
	reads          []opRecord
}

func newRecrawl(srv *server, in inputs, steal *stealMonitor) *recrawlRun {
	return &recrawlRun{
		srv: srv, steal: steal, conn: newConn(), readConn: newConn(),
		res: recrawlResult{Pages: len(in.Crawl[0]), Crawls: len(in.Crawl), Groups: len(in.CrawlGroups)},
	}
}

// group ingests crawl group g in every crawl version.
func (r *recrawlRun) group(ctx context.Context, in inputs, g int) {
	res := &r.res
	var lat []float64
	docs := res.Docs
	t0 := time.Now()
	var stop, readDone chan struct{}
	for v := range in.Crawl {
		if v == 1 {
			stop, readDone = make(chan struct{}), make(chan struct{})
			go func() {
				defer close(readDone)
				start := time.Now()
				recs, _ := openLoop(start, in.ReadDue[g], []*http.Client{r.readConn}, stop, func(c *http.Client, i int) bool {
					_, status, err := get(ctx, c, r.srv.base+in.Queries[in.ReadPick[g][i]].Path)
					return err == nil && status == http.StatusOK
				})
				for i, rec := range recs {
					x := timed{V: rec.latencyMs(), From: start.Add(rec.Due), To: start.Add(rec.Done)}
					if in.Queries[in.ReadPick[g][i]].Search != nil {
						r.search = append(r.search, x)
					} else {
						r.facts = append(r.facts, x)
					}
				}
				r.reads = append(r.reads, recs...)
			}()
		}
		sub := make([]page, len(in.CrawlGroups[g]))
		for j, i := range in.CrawlGroups[g] {
			sub[j] = in.Crawl[v][i]
			if v == 0 || sub[j].HTML != in.Crawl[v-1][i].HTML {
				res.Bytes += int64(len(sub[j].HTML))
			}
		}
		l, c, err := streamIngest(ctx, r.conn, r.srv.base, sub, res)
		lat = append(lat, l...)
		res.Counts.merge(c)
		if err != nil && res.Invalid == "" {
			res.Invalid = err.Error()
		}
	}
	t1 := time.Now()
	elapsed := t1.Sub(t0).Seconds()
	if stop != nil {
		close(stop)
		<-readDone
	}
	res.IngestSecs += elapsed
	res.DocsPerSec.add(float64(res.Docs-docs)/elapsed, tail{Samples: len(lat)}, t0, t1, r.steal)
	t := tailOf(lat)
	res.PageTail.add(t.Value, t, t0, t1, r.steal)
}

// result takes the figures over the groups ingested so far.
func (r *recrawlRun) result() recrawlResult {
	res := r.res
	res.DocsPerSec.settle()
	res.PageTail.settle()
	for _, rec := range r.reads {
		res.Counts.add(rec.OK)
	}
	res.SearchP50 = windowMedian(r.search, readWindow, r.steal)
	res.SearchTail = windowTail(r.search, readWindow, r.steal)
	res.FactsTail = windowTail(r.facts, readWindow, r.steal)
	res.ReadLate = latenessOf(r.reads)
	if res.ReadLate.P90Ms > generatorLateLimitMs && res.Invalid == "" {
		res.Invalid = fmt.Sprintf("read generator fell behind: p90 lateness %.1f ms", res.ReadLate.P90Ms)
	}
	return res
}

// streamIngest sends one crawl as a single NDJSON /v1/ingest request, one
// line at a time, and times each page from its line being written to its
// reply line arriving. A page reply carrying an error counts as failed.
func streamIngest(ctx context.Context, c *http.Client, base string, crawl []page, res *recrawlResult) ([]float64, counts, error) {
	var cnt counts
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/ingest", pr)
	if err != nil {
		return nil, cnt, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type reply struct {
		resp *http.Response
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := c.Do(req)
		replies <- reply{resp, err}
	}()

	var lat []float64
	var br *bufio.Reader
	var resp *http.Response
	received := false
	defer func() {
		pw.Close()
		if !received {
			resp = (<-replies).resp
		}
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	enc := json.NewEncoder(pw)
	for _, pg := range crawl {
		t0 := time.Now()
		if err := enc.Encode(ingestLine{PageID: pg.ID, HTML: pg.HTML}); err != nil {
			return lat, cnt, fmt.Errorf("ingest: send %s: %w", pg.ID, err)
		}
		if br == nil {
			r := <-replies
			received = true
			if r.err != nil {
				return lat, cnt, fmt.Errorf("ingest: %w", r.err)
			}
			resp = r.resp
			if resp.StatusCode != http.StatusOK {
				return lat, cnt, fmt.Errorf("ingest: status %d", resp.StatusCode)
			}
			br = bufio.NewReader(resp.Body)
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			return lat, cnt, fmt.Errorf("ingest: read reply for %s: %w", pg.ID, err)
		}
		var rep ingestReply
		ok := json.Unmarshal(line, &rep) == nil && rep.Error == "" && rep.PageID == pg.ID && rep.PersistErrors == 0
		cnt.add(ok)
		if ok {
			lat = append(lat, ms(time.Since(t0)))
			res.Docs += len(rep.Documents)
			res.Reused += rep.Reused
			res.Realigned += rep.Realigned
		} else {
			lat = append(lat, math.Inf(1))
		}
	}
	return lat, cnt, nil
}
