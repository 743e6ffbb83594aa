package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"briq"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/htmlx"
	"briq/internal/ingest"
	"briq/internal/quantsearch"
	"briq/internal/store"
)

// crawlSequence returns three crawls of one generated corpus: the cold
// crawl, a re-crawl that edits the first paragraph of every page, and that
// re-crawl with the last paragraph of one page dropped, which takes a
// document off that page. lost is that page's index.
func crawlSequence(t *testing.T, seed int64, pages int) (crawls [][]*corpus.Page, lost int) {
	t.Helper()
	cfg := corpus.TableSConfig(seed)
	cfg.Pages = pages
	cold := corpus.Generate(cfg).Pages
	edited := corpus.Generate(cfg).Pages
	for _, pg := range edited {
		pg.Paras[0] += " Meanwhile, 8 further observations were recorded."
	}
	shrunk := corpus.Generate(cfg).Pages
	lost = -1
	for i, pg := range shrunk {
		pg.Paras[0] = edited[i].Paras[0]
		if lost < 0 && len(pg.Paras) >= 2 {
			pg.Paras = pg.Paras[:len(pg.Paras)-1]
			lost = i
		}
	}
	if lost < 0 {
		t.Fatal("no page with two paragraphs to drop a document from")
	}
	return [][]*corpus.Page{cold, edited, shrunk}, lost
}

// bootStored boots a cached server over a persistent store directory.
func bootStored(t *testing.T, dir string) (*server, *store.Store) {
	t.Helper()
	p := briq.New(briq.WithCache(8 << 20))
	st, err := store.Open(store.Options{Dir: dir, Fingerprint: p.Fingerprint(), Gate: p.Gate})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(p, serverOptions{workers: 2, store: st}), st
}

// postBatch sends one crawl through /v1/align/batch, with page IDs.
func postBatch(t *testing.T, srv *server, pages []*corpus.Page) {
	t.Helper()
	var req batchRequest
	for _, pg := range pages {
		req.Pages = append(req.Pages, batchPage{ID: pg.ID, HTML: pg.HTML()})
	}
	body, _ := json.Marshal(req)
	if rec := do(t, srv, http.MethodPost, "/v1/align/batch", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
}

// postIngest streams pages through /v1/ingest and returns the response lines.
func postIngest(t *testing.T, srv *server, pages []ingestLine) []ingest.Result {
	t.Helper()
	var b strings.Builder
	for _, pg := range pages {
		line, _ := json.Marshal(pg)
		b.Write(line)
		b.WriteByte('\n')
	}
	rec := do(t, srv, http.MethodPost, "/v1/ingest", b.String())
	res := decodeIngestLines(t, rec.Body.String())
	for _, r := range res {
		if r.Error != "" {
			t.Fatalf("ingest page %s: %s (%s)", r.PageID, r.Error, r.Code)
		}
	}
	return res
}

func crawlLines(pages []*corpus.Page) []ingestLine {
	out := make([]ingestLine, len(pages))
	for i, pg := range pages {
		out[i] = ingestLine{PageID: pg.ID, HTML: pg.HTML()}
	}
	return out
}

// readAnswers fetches a fixed battery of /v1/search answers and the
// /v1/facts answer of every entity the store knows, keyed by request path.
func readAnswers(t *testing.T, srv *server) map[string]string {
	t.Helper()
	paths := []string{
		"/v1/search?op=above&value=0&limit=500",
		"/v1/search?op=below&value=1000&limit=500",
		"/v1/search?op=between&value=5&value2=500&limit=500",
		"/v1/search?op=above&value=0&keywords=total&limit=500",
	}
	for _, e := range srv.store.Entities() {
		paths = append(paths, "/v1/facts?entity="+url.QueryEscape(e)+"&limit=500")
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		rec := do(t, srv, http.MethodGet, p, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", p, rec.Code, rec.Body.String())
		}
		out[p] = rec.Body.String()
	}
	return out
}

func assertSameAnswers(t *testing.T, got, want map[string]string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d answers, want %d (entity sets differ)", label, len(got), len(want))
	}
	for p, w := range want {
		if g, ok := got[p]; !ok || g != w {
			t.Errorf("%s: GET %s diverges", label, p)
		}
	}
}

// TestAlignBatchEqualsIngest: one crawl sequence — cold crawl, edited
// re-crawl, a page losing a document — sent through /v1/align/batch with
// page IDs and through /v1/ingest leaves byte-identical /v1/search and
// /v1/facts answers after every crawl, and again after both servers restart
// on their stores.
func TestAlignBatchEqualsIngest(t *testing.T) {
	crawls, lost := crawlSequence(t, 67, 4)
	dirA, dirB := t.TempDir(), t.TempDir()
	srvA, stA := bootStored(t, dirA)
	srvB, stB := bootStored(t, dirB)

	var last map[string]string
	for step, crawl := range crawls {
		postBatch(t, srvA, crawl)
		res := postIngest(t, srvB, crawlLines(crawl))
		if step == 2 && res[lost].Retracted == 0 {
			t.Fatalf("page %s dropped a paragraph but ingest retracted nothing", res[lost].PageID)
		}
		a, b := readAnswers(t, srvA), readAnswers(t, srvB)
		if !strings.Contains(a["/v1/search?op=above&value=0&limit=500"], `"doc_id"`) {
			t.Fatalf("crawl %d: batch server found nothing", step)
		}
		assertSameAnswers(t, a, b, fmt.Sprintf("crawl %d", step))
		last = b
	}
	if c := stA.Counters(); c["live_documents"] != stB.Counters()["live_documents"] {
		t.Errorf("live documents: batch %d, ingest %d", c["live_documents"], stB.Counters()["live_documents"])
	}
	stA.Close()
	stB.Close()

	srvA2, stA2 := bootStored(t, dirA)
	defer stA2.Close()
	srvB2, stB2 := bootStored(t, dirB)
	defer stB2.Close()
	assertSameAnswers(t, readAnswers(t, srvA2), last, "batch server after restart")
	assertSameAnswers(t, readAnswers(t, srvB2), last, "ingest server after restart")
}

// TestAlignRunEqualsIngestRequest: /v1/align writes page "request", so a
// run of single-page aligns leaves the corpus holding only the last page —
// the same answers as ingesting page "request" with the last HTML.
func TestAlignRunEqualsIngestRequest(t *testing.T) {
	crawls, _ := crawlSequence(t, 71, 3)
	srvA := newServer(briq.New(briq.WithCache(8<<20)), serverOptions{workers: 2})
	var lastHTML string
	for _, crawl := range crawls[:2] {
		for _, pg := range crawl {
			lastHTML = pg.HTML()
			if rec := do(t, srvA, http.MethodPost, "/v1/align", lastHTML); rec.Code != http.StatusOK {
				t.Fatalf("align %s: %d: %s", pg.ID, rec.Code, rec.Body.String())
			}
		}
	}
	srvB := newTestServer()
	postIngest(t, srvB, []ingestLine{{PageID: "request", HTML: lastHTML}})

	a, b := readAnswers(t, srvA), readAnswers(t, srvB)
	if !strings.Contains(b["/v1/search?op=above&value=0&limit=500"], `"doc_id"`) {
		t.Fatal("ingested page found nothing")
	}
	assertSameAnswers(t, a, b, "align run vs ingest of the last page")
	if got, want := srvA.store.Counters()["live_documents"], srvB.store.Counters()["live_documents"]; got != want {
		t.Errorf("live documents after align run = %d, want the last page's %d", got, want)
	}
}

// TestConcurrentBatchAndIngestSamePage races /v1/align/batch and /v1/ingest
// writes of two versions of one page (run with -race). Whichever version
// wins, every live document keeps its stored alignments, and search and
// facts equal a from-scratch build of the winning version made straight
// from quantsearch.Index.AddEntries and facts.View.Add.
func TestConcurrentBatchAndIngestSamePage(t *testing.T) {
	crawls, lost := crawlSequence(t, 73, 3)
	versions := []*corpus.Page{crawls[0][lost], crawls[2][lost]}
	srv := newServer(briq.New(briq.WithCache(8<<20)), serverOptions{workers: 2})

	// Each writer alternates the versions, out of phase with the other.
	// Failures are reported with Errorf: FailNow must not leave a writer
	// goroutine.
	const rounds = 6
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			pg := versions[i%2]
			body, _ := json.Marshal(batchRequest{Pages: []batchPage{{ID: pg.ID, HTML: pg.HTML()}}})
			if rec := do(t, srv, http.MethodPost, "/v1/align/batch", string(body)); rec.Code != http.StatusOK {
				t.Errorf("batch round %d: %d: %s", i, rec.Code, rec.Body.String())
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			pg := versions[(i+1)%2]
			line, _ := json.Marshal(ingestLine{PageID: pg.ID, HTML: pg.HTML()})
			body := do(t, srv, http.MethodPost, "/v1/ingest", string(line)+"\n").Body.String()
			if !strings.Contains(body, `"realigned"`) || strings.Contains(body, `"error"`) {
				t.Errorf("ingest round %d: %s", i, body)
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The winner is the version whose documents are exactly the live set.
	seg := document.NewSegmenter()
	var winner []*document.Document
	for _, v := range versions {
		docs, err := seg.SegmentPage(v.ID, htmlx.ParseString(v.HTML()))
		if err != nil {
			t.Fatal(err)
		}
		live := 0
		for _, d := range docs {
			if _, ok := srv.store.Alignments(srv.store.DocumentKey(d)); ok {
				live++
			}
		}
		if live == len(docs) && int64(live) == srv.store.Counters()["live_documents"] {
			winner = docs
		}
	}
	if winner == nil {
		t.Fatalf("live set matches neither version: %v", srv.store.Counters())
	}

	index, view := quantsearch.NewIndex(), facts.NewView()
	for _, d := range winner {
		want, err := srv.pipeline.AlignContext(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := srv.store.Alignments(srv.store.DocumentKey(d))
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("live document %s holds %d alignments, want %d", d.ID, len(got), len(want))
		}
		index.AddEntries(quantsearch.EntriesFromDocument(d))
		view.Add(facts.Extract(d, want))
	}
	for _, q := range []quantsearch.Query{
		{Op: quantsearch.Above, Value: 0},
		{Op: quantsearch.Below, Value: 1000},
		{Keywords: []string{"total"}, Op: quantsearch.Above, Value: 0},
	} {
		if !reflect.DeepEqual(srv.store.Search(q), index.Search(q)) {
			t.Errorf("query %+v diverges from a from-scratch build of the winner", q)
		}
	}
	if got, want := srv.store.Entities(), view.Entities(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entities diverge from a from-scratch build: %v vs %v", got, want)
	}
	for _, e := range view.Entities() {
		if !reflect.DeepEqual(srv.store.FactsFor(e), view.Entity(e)) {
			t.Errorf("facts for %q diverge from a from-scratch build", e)
		}
	}
}
