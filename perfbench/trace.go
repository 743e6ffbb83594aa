package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/feature"
	"briq/internal/filter"
	"briq/internal/forest"
	"briq/internal/htmlx"
	"briq/internal/ingest"
	"briq/internal/quantity"
	"briq/internal/quantsearch"
	"briq/internal/resolve"
	"briq/internal/runtime"
	"briq/internal/serve"
	"briq/internal/store"
)

// ---- spans ----

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent indexes the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Page   string `json:"page"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one goroutine. A tracer that is off
// records nothing, so the same code runs traced and untraced.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name, page string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Page: page, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// ---- the traced run ----

// traceTolerance bounds how far the layer self times of a traced page may
// differ from the page's untraced in-process wall time, as a share of that
// wall time, in the median over the traced pages.
const traceTolerance = 0.10

// tracePages caps the pages a traced run feeds through the layers.
const tracePages = 32

// pageCounts are the work counts of one pass, gathered where the work
// happens.
type pageCounts struct {
	pages, docs, pairs, live, kept, alignments int
	tableMentions, textMentions                int
	pageBytes, respBytes                       int64
}

// layers is the per-page work, split at every layer boundary.
type layers struct {
	p     *core.Pipeline
	fp    string
	seg   *document.Segmenter
	fz    *forest.Frozen
	rwr   resolve.Resolver
	votes []float64
}

// page runs one page through every layer, upserting it into st, and
// returns its wall time. It adds the page's work to c and its per-document
// alignments to out.
func (l *layers) page(ctx context.Context, t *tracer, pg page, st *store.Store, c *pageCounts, out map[string][]core.Alignment) (time.Duration, error) {
	m := l.p.Mask.Count()
	var full [feature.NumFeatures]float64
	start := time.Now()
	t.begin("page", pg.ID)

	t.begin("htmlx.parse", pg.ID)
	hp := htmlx.ParseString(pg.HTML)
	t.end()
	t.begin("serve.page_key", pg.ID)
	_ = serve.PageKeyOf(l.fp, pg.ID, pg.HTML)
	t.end()
	t.begin("document.segment", pg.ID)
	segm, err := l.seg.SegmentPageInfo(pg.ID, hp)
	t.end()
	if err != nil {
		return 0, err
	}

	docs := segm.Docs
	perDoc := make([][]core.Alignment, len(docs))
	var flat []core.Alignment
	for di, doc := range docs {
		t.begin("core.doc_parts", pg.ID)
		core.DocumentParts(doc)
		t.end()

		t.begin("feature.extract", pg.ID)
		ext := feature.NewExtractor(l.p.Features, doc)
		cands := make([]filter.Candidate, 0, len(doc.TextMentions)*len(doc.TableMentions))
		var live []int
		for xi := range doc.TextMentions {
			x := &doc.TextMentions[xi]
			for ti, tm := range doc.TableMentions {
				if x.Unit == "" || tm.Unit == "" || quantity.UnitsCompatible(x.Unit, tm.Unit) {
					live = append(live, len(cands))
				}
				cands = append(cands, filter.Candidate{Text: xi, Table: ti})
			}
		}
		feats := make([]float64, len(live)*m)
		for r, idx := range live {
			vec := ext.VectorInto(cands[idx].Text, cands[idx].Table, full[:])
			k := 0
			for i, v := range vec {
				if l.p.Mask[i] {
					feats[r*m+k] = v
					k++
				}
			}
		}
		t.end()

		t.begin("forest.proba", pg.ID)
		scores := l.fz.PositiveProbaBatch(feats, len(live), nil, l.votes)
		t.end()
		for r, idx := range live {
			cands[idx].Score = scores[r]
		}

		t.begin("filter.apply", pg.ID)
		fr := filter.Apply(l.p.FilterConfig, doc, l.p.Tagger, cands)
		t.end()

		t.begin("resolve.rwr", pg.ID)
		asg, err := l.rwr.Resolve(ctx, doc, fr.Kept)
		t.end()
		if err != nil {
			return 0, err
		}

		t.begin("core.assemble", pg.ID)
		als := make([]core.Alignment, 0, len(asg))
		for _, a := range asg {
			als = append(als, toAlignment(doc, a))
		}
		t.end()

		t.begin("facts.extract", pg.ID)
		facts.Extract(doc, als)
		t.end()

		perDoc[di] = als
		flat = append(flat, als...)
		out[doc.ID] = als
		c.docs++
		c.pairs += len(cands)
		c.live += len(live)
		c.kept += len(fr.Kept)
		c.alignments += len(als)
		c.tableMentions += len(doc.TableMentions)
		c.textMentions += len(doc.TextMentions)
	}

	t.begin("store.upsert", pg.ID)
	st.UpsertPage(pg.ID, docs, perDoc)
	t.end()

	t.begin("api.encode", pg.ID)
	body := envelope(map[string]any{"alignments": flat})
	t.end()

	t.end()
	wall := time.Since(start)
	c.pages++
	c.pageBytes += int64(len(pg.HTML))
	c.respBytes += int64(len(body))
	return wall, nil
}

// toAlignment builds the output unit of one resolver assignment, as the
// pipeline's align step does.
func toAlignment(doc *document.Document, a resolve.Assignment) core.Alignment {
	x := doc.TextMentions[a.Text]
	tm := doc.TableMentions[a.Table]
	return core.Alignment{
		DocID:       doc.ID,
		TextIndex:   a.Text,
		TableIndex:  a.Table,
		TextSurface: x.Surface,
		TextStart:   x.Start,
		TextEnd:     x.End,
		TableKey:    tm.Key(),
		Agg:         tm.Agg,
		AggName:     tm.Agg.String(),
		Value:       tm.Value,
		Score:       a.Score,
	}
}

// tracedRun feeds the workload's own inputs through each layer's public
// functions in process and returns the per-layer metrics. Untraced and
// traced passes alternate over the same pages; their difference is the
// tracing overhead, and the traced layer self times must account for the
// untraced wall time within traceTolerance.
func (b *bench) tracedRun(ctx context.Context, orc *oracle, in inputs, serving map[string]int64) (map[string]metric, []check, error) {
	pages, recrawled := b.tracedInputs(in)
	p := orc.p
	if p.Classifier == nil {
		return nil, nil, fmt.Errorf("traced run needs a trained model bundle")
	}
	fz := p.Classifier.Frozen()
	l := &layers{p: p, fp: p.Fingerprint(), seg: orc.seg, fz: fz, rwr: resolve.NewRWR(p.GraphConfig), votes: make([]float64, fz.BatchScratchLen())}
	tdir := filepath.Join(b.dir, "traced")

	// Each page runs untraced and traced back to back, the order swapped
	// every round, each side into its own fresh store. Per page, the
	// fastest round of each side counts: interference on a shared machine
	// only ever adds time.
	const rounds = 4 // after one warm-up round; even, so both orders count alike
	n := len(pages)
	bestU := make([]time.Duration, n)
	bestT := make([]time.Duration, n)
	bestSelf := make([]map[string]int64, n)
	var spans []span
	var counts pageCounts
	als := map[string][]core.Alignment{}
	var st *store.Store
	for r := 0; r <= rounds; r++ {
		stU, err := store.Open(store.Options{Dir: filepath.Join(tdir, fmt.Sprintf("u%d", r)), Fingerprint: l.fp})
		if err != nil {
			return nil, nil, err
		}
		stT, err := store.Open(store.Options{Dir: filepath.Join(tdir, fmt.Sprintf("t%d", r)), Fingerprint: l.fp})
		if err != nil {
			stU.Close()
			return nil, nil, err
		}
		off, t := newTracer(false), newTracer(true)
		var c pageCounts
		first := make([]int, n) // index of each page's root span
		for i, pg := range pages {
			var wU, wT time.Duration
			traced := func() (err error) {
				first[i] = len(t.spans)
				wT, err = l.page(ctx, t, pg, stT, &c, als)
				return err
			}
			untraced := func() (err error) {
				wU, err = l.page(ctx, off, pg, stU, &pageCounts{}, map[string][]core.Alignment{})
				return err
			}
			steps := []func() error{untraced, traced}
			if r%2 == 1 {
				steps[0], steps[1] = traced, untraced
			}
			for _, step := range steps {
				if err := step(); err != nil {
					stU.Close()
					stT.Close()
					return nil, nil, err
				}
			}
			if r == 0 {
				continue
			}
			if bestU[i] == 0 || wU < bestU[i] {
				bestU[i] = wU
			}
			if bestT[i] == 0 || wT < bestT[i] {
				bestT[i] = wT
				bestSelf[i] = nil // filled below from this round's spans
			}
		}
		stU.Close()
		if r == 0 {
			stT.Close()
			continue
		}
		self := selfTimes(t.spans)
		for i := range pages {
			if bestSelf[i] != nil {
				continue
			}
			end := len(t.spans)
			if i+1 < n {
				end = first[i+1]
			}
			bestSelf[i] = map[string]int64{}
			for k := first[i]; k < end; k++ {
				bestSelf[i][t.spans[k].Name] += self[k]
			}
		}
		for _, sp := range t.spans {
			if sp.Parent >= 0 {
				sp.Parent += len(spans)
			}
			spans = append(spans, sp)
		}
		counts = c
		if st != nil {
			st.Close()
		}
		st = stT
	}
	defer st.Close()

	// Per page, the layer self times over the untraced wall time; the
	// median over the pages is checked, so a burst that slowed a few pages
	// in every round cannot fail a correct decomposition.
	selfBy := map[string]int64{}
	var untraced, traced time.Duration
	shares := make([]float64, n)
	for i := range pages {
		untraced += bestU[i]
		traced += bestT[i]
		var layerSelf int64
		for name, ns := range bestSelf[i] {
			selfBy[name] += ns
			if name != "page" {
				layerSelf += ns
			}
		}
		shares[i] = float64(layerSelf) / float64(bestU[i])
	}
	unattributed := math.Abs(median(shares) - 1)
	overhead := float64(traced-untraced) / float64(untraced)
	checks := []check{{Name: fmt.Sprintf("median over pages of traced layer self times within %.0f%% of untraced page wall time", traceTolerance*100), Compared: 1}}
	if unattributed > traceTolerance {
		checks[0].Mismatches = 1
	}
	b.report["trace_self_over_wall"] = shares

	// The traced decomposition must compute exactly what the pipeline does.
	var docs []*document.Document
	for _, pg := range pages {
		ds, err := orc.seg.SegmentPage(pg.ID, htmlx.ParseString(pg.HTML))
		if err != nil {
			return nil, nil, err
		}
		docs = append(docs, ds...)
	}
	decomp := check{Name: "traced decomposition vs Pipeline.AlignContext", Compared: len(docs)}
	var alignTime time.Duration
	for _, doc := range docs {
		t0 := time.Now()
		want, err := p.AlignContext(ctx, doc)
		alignTime += time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		gotJSON, _ := json.Marshal(als[doc.ID])
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			decomp.Mismatches++
		}
	}
	checks = append(checks, decomp)

	// Store: AddDocument into a fresh store, replay of the workload's log,
	// and reads against the traced store.
	addSt, err := store.Open(store.Options{Dir: filepath.Join(tdir, "add"), Fingerprint: l.fp})
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	for _, doc := range docs {
		addSt.AddDocument(doc, als[doc.ID])
	}
	addTime := time.Since(t0)
	addSt.Close()

	t0 = time.Now()
	rep, err := store.Open(store.Options{
		Dir: filepath.Join(b.dir, ownPhase(b.workload)), Fingerprint: l.fp,
		Gate: serve.NewEngine(serve.Config{Fingerprint: l.fp, CacheBytes: 64 << 20, MaxQueue: serve.DefaultMaxQueue}),
	})
	replay := time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	rep.Close()

	var entries []quantsearch.Entry
	for _, doc := range docs {
		entries = append(entries, quantsearch.EntriesFromDocument(doc)...)
	}
	qs := genQueries(subSeed(b.seed, 6), entries, 40)
	var searchT, factsT time.Duration
	var nSearch, nFacts int
	for _, q := range qs {
		t0 := time.Now()
		if q.Search != nil {
			st.Search(*q.Search)
			searchT += time.Since(t0)
			nSearch++
		} else {
			st.FactsFor(facts.CanonicalEntity(q.Entity))
			factsT += time.Since(t0)
			nFacts++
		}
	}
	sc := st.Counters()

	// Runtime pool at the server's worker count and at one worker.
	poolRate := func(workers int) (float64, error) {
		pool := runtime.NewPool(p, runtime.Options{Workers: workers})
		t0 := time.Now()
		if _, err := pool.AlignPerDoc(ctx, docs); err != nil {
			return 0, err
		}
		return float64(len(docs)) / time.Since(t0).Seconds(), nil
	}
	pool2, err := poolRate(serverProcs)
	if err != nil {
		return nil, nil, err
	}
	pool1, err := poolRate(1)
	if err != nil {
		return nil, nil, err
	}

	// Ingest: the pages cold, then a re-crawl with a share of them edited.
	ingSt, err := store.Open(store.Options{Dir: filepath.Join(tdir, "ingest"), Fingerprint: l.fp})
	if err != nil {
		return nil, nil, err
	}
	ing := ingest.New(p, ingSt, ingest.Options{Workers: serverProcs})
	var ingestT time.Duration
	var ingestPages, reused, realigned int
	for round, crawl := range [][]page{pages, recrawled} {
		for _, pg := range crawl {
			t0 := time.Now()
			res := ing.Page(ctx, pg.ID, pg.HTML)
			ingestT += time.Since(t0)
			ingestPages++
			if res.Error != "" {
				ingSt.Close()
				return nil, nil, fmt.Errorf("traced ingest %s: %s", pg.ID, res.Error)
			}
			if round == 1 {
				reused += res.Reused
				realigned += res.Realigned
			}
		}
	}
	ingSt.Close()

	if err := b.writeSpans(spans); err != nil {
		return nil, nil, err
	}

	per := func(ns int64, n int) float64 { return float64(ns) / 1e6 / float64(max(n, 1)) }
	ratio := func(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
	hits, misses := serving["hits"], serving["misses"]
	m := map[string]metric{
		"htmlx.parse_ms":                  {per(selfBy["htmlx.parse"], counts.pages), "ms"},
		"htmlx.page_bytes":                {float64(counts.pageBytes) / float64(max(counts.pages, 1)), "bytes"},
		"document.segment_ms":             {per(selfBy["document.segment"], counts.pages), "ms"},
		"document.docs_per_page":          {ratio(counts.docs, counts.pages), "count"},
		"table.mentions_per_doc":          {ratio(counts.tableMentions, counts.docs), "count"},
		"quantity.text_mentions_per_doc":  {ratio(counts.textMentions, counts.docs), "count"},
		"core.doc_parts_ms":               {per(selfBy["core.doc_parts"], counts.docs), "ms"},
		"serve.page_key_ms":               {per(selfBy["serve.page_key"], counts.pages), "ms"},
		"serve.hit_rate":                  {float64(hits) / float64(max(hits+misses, 1)), "ratio"},
		"serve.evictions":                 {float64(serving["evictions"]), "count"},
		"serve.shed":                      {float64(serving["shed_overloaded"] + serving["shed_deadline"]), "count"},
		"feature.extract_ms":              {per(selfBy["feature.extract"], counts.docs), "ms"},
		"feature.pairs_per_doc":           {ratio(counts.pairs, counts.docs), "count"},
		"core.gate_live_ratio":            {ratio(counts.live, counts.pairs), "ratio"},
		"forest.proba_ms":                 {per(selfBy["forest.proba"], counts.docs), "ms"},
		"forest.ns_per_row":               {float64(selfBy["forest.proba"]) / float64(max(counts.live, 1)), "ns"},
		"filter.apply_ms":                 {per(selfBy["filter.apply"], counts.docs), "ms"},
		"filter.kept_ratio":               {ratio(counts.kept, counts.pairs), "ratio"},
		"resolve.rwr_ms":                  {per(selfBy["resolve.rwr"], counts.docs), "ms"},
		"core.assemble_ms":                {per(selfBy["core.assemble"], counts.docs), "ms"},
		"core.align_ms":                   {ms(alignTime) / float64(max(len(docs), 1)), "ms"},
		"core.alignments_per_doc":         {ratio(counts.alignments, counts.docs), "count"},
		"facts.extract_ms":                {per(selfBy["facts.extract"], counts.docs), "ms"},
		"runtime.pool_docs_per_s":         {pool2, "1/s"},
		"runtime.pool_docs_per_s_1worker": {pool1, "1/s"},
		"store.upsert_ms":                 {per(selfBy["store.upsert"], counts.pages), "ms"},
		"store.log_bytes_per_doc":         {float64(sc["log_bytes"]) / float64(max(counts.docs, 1)), "bytes"},
		"store.add_document_ms":           {ms(addTime) / float64(max(len(docs), 1)), "ms"},
		"store.replay_s":                  {replay.Seconds(), "s"},
		"store.search_ms":                 {ms(searchT) / float64(max(nSearch, 1)), "ms"},
		"store.facts_ms":                  {ms(factsT) / float64(max(nFacts, 1)), "ms"},
		"quantsearch.entries":             {float64(sc["index_entries"]), "count"},
		"ingest.page_ms":                  {ms(ingestT) / float64(max(ingestPages, 1)), "ms"},
		"ingest.reuse_rate":               {ratio(reused, reused+realigned), "ratio"},
		"api.encode_ms":                   {per(selfBy["api.encode"], counts.pages), "ms"},
		"api.response_bytes":              {float64(counts.respBytes) / float64(max(counts.pages, 1)), "bytes"},
		"trace.page_wall_ms":              {ms(untraced) / float64(max(counts.pages, 1)), "ms"},
		"trace.unattributed_ratio":        {unattributed, "ratio"},
		"trace.overhead_ratio":            {overhead, "ratio"},
	}
	return m, checks, nil
}

// tracedInputs picks tracePages pages of the workload's own phase with the
// phase's cost mix, and a re-crawl of them for the ingest layer.
func (b *bench) tracedInputs(in inputs) ([]page, []page) {
	var pages []page
	switch b.workload {
	case alignCold:
		pages = in.Cold
	case recrawl:
		pages = in.Crawl[0]
	}
	sorted := append([]page(nil), pages...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cost < sorted[j].Cost })
	n := min(tracePages, len(sorted))
	subset := spread(sorted, []int{n, len(sorted) - n})[0]
	versions := crawlVersions(subSeed(b.seed, 7), subset, 1, b.plan.Recrawl.EditShare)
	return versions[0], versions[1]
}

// writeSpans keeps the traced passes' spans beside the run reports.
func (b *bench) writeSpans(spans []span) error {
	dir := filepath.Join(b.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed)), data, 0o644)
}
