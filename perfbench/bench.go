package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The two workloads BENCHMARK.json runs. A run of either is all three
// phases below, each on a server of its own, interleaved slice by slice;
// the workload names the phase it measures at full size, and the others
// run at a smaller size, so every end-to-end metric is reported on every
// workload.
const (
	alignCold = "align-cold"
	recrawl   = "recrawl"
)

var workloads = []string{alignCold, recrawl}

// The phases of a run. The batch phase is the cache-hot /v1/align/batch
// traffic; it runs in both workloads and is no workload's own phase.
const (
	phaseAlign   = "align"
	phaseBatch   = "batch"
	phaseRecrawl = "recrawl"
)

var phases = []string{phaseAlign, phaseBatch, phaseRecrawl}

// ownPhase is the phase a workload measures at full size.
func ownPhase(workload string) string {
	if workload == alignCold {
		return phaseAlign
	}
	return phaseRecrawl
}

// Shares of a run's measuring time (--seconds) per phase when it is the
// workload's own; the other phase gets secondaryShare of its share. The
// batch phase always gets batchShare.
const (
	alignShare     = 0.45
	batchShare     = 0.25
	recrawlShare   = 0.25
	secondaryShare = 0.75
)

// plan sizes every phase of one run.
type plan struct {
	Primary string
	Ladder  []rung
	Batch   batchPlan
	Recrawl recrawlPlan
}

// ladderRates are the fixed /v1/align rates, lowest first. On two cores a
// cold align costs about 45 ms of CPU, so the middle rate runs near 60%
// utilization and the top one at about twice capacity, where what the
// server answers per second is its capacity.
var ladderRates = []float64{16, 28, 96}

// rungShares split each slice of the align phase over the rungs. The lowest
// rung carries the latency figures; the top rung, offered more than the
// server can take, carries the capacity figure.
var rungShares = []float64{0.75, 0.1, 0.15}

// planFor sizes a workload's phases from its measuring time.
func planFor(workload string, seconds float64) (plan, error) {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return plan{}, fmt.Errorf("unknown workload %q (known: %v)", workload, workloads)
	}
	if seconds < 4 {
		return plan{}, fmt.Errorf("seconds must be at least 4")
	}
	size := func(phase string, share float64) float64 {
		if phase == ownPhase(workload) {
			return seconds * share
		}
		return seconds * share * secondaryShare
	}
	pl := plan{Primary: workload}
	t := size(phaseAlign, alignShare) / slices
	for i, r := range ladderRates {
		pl.Ladder = append(pl.Ladder, rung{Rate: r, Seconds: t * rungShares[i]})
	}
	pl.Batch = batchPlan{Blocks: 16, Seconds: seconds * batchShare}
	t = size(phaseRecrawl, recrawlShare)
	pl.Recrawl = recrawlPlan{
		Pages:       int(15 * t),
		Rounds:      3,
		EditShare:   0.25,
		Queries:     120,
		ReadRate:    240,
		ReadSeconds: t,
	}
	return pl, nil
}

// bench is one benchmark run.
type bench struct {
	workload string
	seed     int64
	plan     plan
	bin      string
	model    string
	dir      string // this run's stores, removed when the run ends
	work     string // build directory: reports and traces are kept here
	report   map[string]any
}

// check records one correctness comparison series.
type check struct {
	Name       string `json:"name"`
	Compared   int    `json:"compared"`
	Mismatches int    `json:"mismatches"`
}

// run executes the workload's three phases, each on a freshly booted server,
// interleaved in slices, restarts the recrawl phase's server on the store it
// wrote, checks every kept answer against the in-process oracle, and returns
// the end-to-end metrics (or, traced, the per-layer metrics).
func (b *bench) run(ctx context.Context, traced bool) (result, error) {
	genStart := time.Now()
	in := genInputs(b.seed, b.plan)
	b.report["meta"] = b.meta(in)
	b.report["generate_s"] = time.Since(genStart).Seconds()

	var (
		total      counts
		setups     []timed
		restarts   []timed
		checks     []check
		lr         ladderResult
		br         batchResult
		rr         recrawlResult
		rss        float64
		storeRatio float64
		serving    map[string]int64
		// got/want pairs compared once all measuring is over.
		alignGot             = map[int][]byte{}   // sampled page → answer
		batchGot             = map[int][][]byte{} // sampled block → answers
		readsBefore, readsAt [][]byte
	)
	// The client sends and times on one core, so that it competes little
	// with the server's two.
	runtime.GOMAXPROCS(clientProcs)
	probe := newConn()
	own := ownPhase(b.workload)

	// Every phase's server stays up for the whole run, and the run
	// interleaves them: slice after slice, each slice a part of every phase.
	// A figure is then taken from across the run, so a burst of interference
	// on a shared machine, which can last seconds, spoils part of every
	// phase rather than all of one.
	steal := startStealMonitor()
	defer steal.close()
	live := map[*server]bool{}
	defer func() {
		for srv := range live {
			srv.stop()
		}
	}()
	boot := func(dir string) (*server, timed, error) {
		t0 := time.Now()
		srv, d, err := startServer(b.bin, b.model, dir)
		if err != nil {
			return nil, timed{}, err
		}
		live[srv] = true
		return srv, timed{V: d.Seconds(), From: t0, To: t0.Add(d)}, nil
	}
	stop := func(srv *server) error {
		delete(live, srv)
		if err := srv.stop(); err != nil {
			return fmt.Errorf("stop briq-server: %w", err)
		}
		return nil
	}
	dirs := map[string]string{}
	srvs := map[string]*server{}
	for _, ph := range phases {
		dirs[ph] = filepath.Join(b.dir, ph)
		srv, d, err := boot(dirs[ph])
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d)
		srvs[ph] = srv
	}
	before, err := srvs[phaseBatch].servingCounters(ctx, probe)
	if err != nil {
		return result{}, err
	}
	ld := newLadder(ctx, srvs[phaseAlign], in, b.plan, alignSampleEvery, steal)
	bl := newBatch(ctx, srvs[phaseBatch], in, steal)
	rc := newRecrawl(srvs[phaseRecrawl], in, steal)

	// finish stops a phase's server; for the workload's own phase it first
	// reads the server's peak memory and then sizes its store.
	finish := func(ph string, html int64) error {
		srv := srvs[ph]
		if ph == own {
			var err error
			if rss, err = srv.peakRSSMB(); err != nil {
				return err
			}
		}
		if err := stop(srv); err != nil {
			return err
		}
		if ph == own {
			storeB, err := dirBytes(dirs[ph])
			if err != nil {
				return err
			}
			b.report["store_bytes"] = storeB
			b.report["html_bytes_sent"] = html
			storeRatio = float64(storeB) / float64(html)
		}
		return nil
	}
	// restart boots a server on the store the recrawl phase wrote, and
	// stops it again; the last restart of the run reads the battery first.
	// Acknowledged means durable: it must answer every read as the server
	// that wrote the store did.
	restart := func(n int, last bool) error {
		for i := 0; i < n; i++ {
			srv, d, err := boot(dirs[phaseRecrawl])
			if err != nil {
				return fmt.Errorf("restart: %w", err)
			}
			restarts = append(restarts, d)
			if last && i == n-1 {
				readsAt = readBattery(ctx, probe, srv, in.Queries, &total)
			}
			if err := stop(srv); err != nil {
				return err
			}
		}
		return nil
	}

	recrawlDone := false
	for sl := 0; sl < slices; sl++ {
		ld.slice(ctx, in, sl)
		srv, d, err := boot(filepath.Join(b.dir, fmt.Sprintf("boot%d", sl)))
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d)
		if err := stop(srv); err != nil {
			return result{}, err
		}
		if recrawlDone {
			if err := restart(restartsPerPoint, false); err != nil {
				return result{}, err
			}
		}
		bl.slice(ctx, b.plan.Batch.Seconds/slices)
		if recrawlDone {
			if err := restart(restartsPerPoint, false); err != nil {
				return result{}, err
			}
		}
		if sl >= len(in.CrawlGroups) {
			continue
		}
		rc.group(ctx, in, sl)
		if sl == len(in.CrawlGroups)-1 {
			readsBefore = readBattery(ctx, probe, srvs[phaseRecrawl], in.Queries, &total)
			if err := finish(phaseRecrawl, rc.res.Bytes); err != nil {
				return result{}, err
			}
			recrawlDone = true
			if err := restart(restartsPerPoint, false); err != nil {
				return result{}, err
			}
		}
	}
	lr, br, rr = ld.result(), bl.result(), rc.result()
	total.merge(lr.Counts)
	total.merge(br.Counts)
	total.merge(rr.Counts)
	for i, body := range lr.Bodies {
		alignGot[i] = body
	}
	for blk := 0; blk < batchSampleBlocks && blk < len(in.Hot); blk++ {
		batchGot[blk] = append(batchGot[blk], br.Warm[blk])
		if br.Hot[blk] != nil {
			batchGot[blk] = append(batchGot[blk], br.Hot[blk])
		}
	}
	// The serving layer's figures come from the phase that uses its cache.
	after, err := srvs[phaseBatch].servingCounters(ctx, probe)
	if err != nil {
		return result{}, err
	}
	serving = map[string]int64{}
	for k, v := range after {
		serving[k] = v - before[k]
	}
	b.report["batch_cache"] = map[string]int64{"capacity_bytes": after["capacity_bytes"], "working_set_bytes": after["bytes"], "entries": after["entries"]}
	if err := finish(phaseBatch, br.Bytes); err != nil {
		return result{}, err
	}
	if err := finish(phaseAlign, lr.Bytes); err != nil {
		return result{}, err
	}
	if err := restart(1, true); err != nil {
		return result{}, err
	}

	// The oracle and the traced run work in process: give them both cores.
	runtime.GOMAXPROCS(serverProcs)
	b.report["measure_s"] = time.Since(genStart).Seconds() - b.report["generate_s"].(float64)
	checkStart := time.Now()

	// Correctness: every kept answer against the in-process oracle.
	orc, err := newOracle(b.model)
	if err != nil {
		return result{}, err
	}
	alignCheck := check{Name: "align vs in-process AlignHTMLContext"}
	for idx, body := range alignGot {
		want, err := orc.alignBody(ctx, in.Cold[idx].HTML)
		if err != nil {
			return result{}, err
		}
		alignCheck.Compared++
		alignCheck.Mismatches += mismatches([][]byte{body}, [][]byte{want})
	}
	batchCheck := check{Name: "batch vs in-process AlignHTMLContext (warm-up and cache-hit answers)"}
	for blk, bodies := range batchGot {
		want, err := orc.batchBody(ctx, in.Hot[blk])
		if err != nil {
			return result{}, err
		}
		for _, body := range bodies {
			batchCheck.Compared++
			batchCheck.Mismatches += mismatches([][]byte{body}, [][]byte{want})
		}
	}
	readCheck := check{Name: "search/facts vs from-scratch in-process ingest of the final crawl"}
	restartCheck := check{Name: "search/facts after restart vs before"}
	if readsBefore != nil {
		st, err := orc.ingestStore(ctx, in.Crawl[len(in.Crawl)-1])
		if err != nil {
			return result{}, err
		}
		want := make([][]byte, len(in.Queries))
		for i, q := range in.Queries {
			want[i] = readBody(st, q)
		}
		st.Close()
		readCheck.Compared = len(want)
		readCheck.Mismatches = mismatches(readsBefore, want)
		if readsAt != nil {
			restartCheck.Compared = len(want)
			restartCheck.Mismatches = mismatches(readsAt, readsBefore)
		}
	}
	checks = append(checks, alignCheck, batchCheck, readCheck, restartCheck)
	b.report["check_s"] = time.Since(checkStart).Seconds()

	for _, inv := range []string{lr.Invalid, rr.Invalid} {
		if inv != "" {
			return result{}, fmt.Errorf("invalid run: %s", inv)
		}
	}
	var layerMetrics map[string]metric
	if traced {
		m, tc, err := b.tracedRun(ctx, orc, in, serving)
		if err != nil {
			return result{}, err
		}
		layerMetrics = m
		checks = append(checks, tc...)
	}

	res := result{Correct: true}
	mism := 0
	for _, c := range checks {
		mism += c.Mismatches
	}
	res.Attempted = total.Attempted
	res.Failed = total.Failed + mism
	res.Correct = mism == 0
	b.report["checks"] = checks
	b.report["align"] = lr
	b.report["batch"] = br
	b.report["recrawl"] = rr
	b.report["serving_delta"] = serving
	setupW, restartW := calmMedian(setups, steal), calmMedian(restarts, steal)
	b.report["setup_s"] = setupW
	b.report["restart_s"] = restartW
	b.report["host_steal_share"] = steal.share(genStart, time.Now())
	if traced {
		layerMetrics["error_rate"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
		// These figures spread too much from run to run on a shared host
		// for a bound, so they are reported unbounded here: read tails under
		// writes are set by when the server's scheduler lets a read in
		// beside the ingest workers, the align tail by queueing, which
		// magnifies every slowdown of the host, and the capacity by short
		// overload rungs.
		layerMetrics["search_tail_ms"] = metric{rr.SearchTail.Value, "ms"}
		layerMetrics["facts_tail_ms"] = metric{rr.FactsTail.Value, "ms"}
		layerMetrics["align_tail_ms"] = metric{lr.Tail.Value, "ms"}
		layerMetrics["align_capacity_qps"] = metric{lr.Capacity, "1/s"}
		res.Metrics = layerMetrics
		return res, nil
	}
	res.Metrics = map[string]metric{
		"setup_s":                    {setupW.Value, "s"},
		"restart_s":                  {restartW.Value, "s"},
		"align_p50_ms":               {lr.P50.Value, "ms"},
		"batch_p50_ms":               {br.P50.Value, "ms"},
		"batch_tail_ms":              {br.Tail.Value, "ms"},
		"goodput_docs_per_s":         {br.Goodput.Value, "1/s"},
		"ingest_docs_per_s":          {rr.DocsPerSec.Value, "1/s"},
		"ingest_page_tail_ms":        {rr.PageTail.Value, "ms"},
		"search_p50_ms":              {rr.SearchP50.Value, "ms"},
		"peak_rss_mb":                {rss, "MiB"},
		"store_bytes_per_input_byte": {storeRatio, "ratio"},
	}
	return res, nil
}

const (
	clientProcs       = 1  // GOMAXPROCS of the client while it drives the server
	slices            = 8  // slices a run interleaves its phases in
	restartsPerPoint  = 2  // restarts between phase slices once the recrawl store is written; restart_s is the median of all
	alignWarmup       = 8  // unmeasured /v1/align pages before the ladder
	alignSampleEvery  = 32 // every 32nd /v1/align page is checked against the oracle
	batchSampleBlocks = 2  // the first blocks (the most popular under Zipf) are checked
)

// readBattery sends every read query once, sequentially, and returns the
// bodies (nil for a failed read).
func readBattery(ctx context.Context, c *http.Client, srv *server, qs []query, total *counts) [][]byte {
	out := make([][]byte, len(qs))
	for i, q := range qs {
		body, status, err := get(ctx, c, srv.base+q.Path)
		ok := err == nil && status == http.StatusOK
		total.add(ok)
		if ok {
			out[i] = body
		}
	}
	return out
}

// meta is the run metadata kept with every report.
func (b *bench) meta(in inputs) map[string]any {
	host, _ := os.Hostname()
	size := func(pages []page) (n int, bytes int64, docs int) {
		for _, p := range pages {
			n++
			bytes += int64(len(p.HTML))
			docs += p.Docs
		}
		return
	}
	var hot []page
	for _, blk := range in.Hot {
		hot = append(hot, blk...)
	}
	cn, cb, cd := size(in.Cold)
	hn, hb, hd := size(hot)
	var crawl []page
	if len(in.Crawl) > 0 {
		crawl = in.Crawl[0]
	}
	rn, rb, rd := size(crawl)
	return map[string]any{
		"workload":           b.workload,
		"seed":               b.seed,
		"host":               host,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs_client":  clientProcs,
		"gomaxprocs_server":  serverProcs,
		"go_version":         runtime.Version(),
		"store_flush_policy": "none: the store appends without fsync",
		"server_flags":       "-model <bundle> -store <fresh dir> -quiet (default 64 MiB result cache, unbounded admission)",
		"connections":        2,
		"align_cold":         map[string]any{"pages": cn, "html_bytes": cb, "documents": cd, "rates": ladderRates},
		"batch_hot":          map[string]any{"blocks": len(in.Hot), "pages": hn, "html_bytes": hb, "documents": hd, "cache_capacity_bytes": 64 << 20},
		"recrawl":            map[string]any{"pages_per_crawl": rn, "html_bytes": rb, "documents": rd, "crawls": len(in.Crawl), "queries": len(in.Queries)},
		"plan":               b.plan,
	}
}
