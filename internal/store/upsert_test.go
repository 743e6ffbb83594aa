package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"briq"
	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/quantsearch"
)

// pageGroup is one page's slice of an aligned corpus, in document order.
type pageGroup struct {
	id   string
	docs []*document.Document
	als  [][]core.Alignment
}

func groupByPage(docs []*document.Document, als [][]core.Alignment) []pageGroup {
	byID := map[string]int{}
	var groups []pageGroup
	for i, d := range docs {
		gi, ok := byID[d.PageID]
		if !ok {
			gi = len(groups)
			byID[d.PageID] = gi
			groups = append(groups, pageGroup{id: d.PageID})
		}
		groups[gi].docs = append(groups[gi].docs, d)
		groups[gi].als = append(groups[gi].als, als[i])
	}
	return groups
}

// mutated returns a copy of doc with its paragraph text changed — a new
// content identity at the same page position.
func mutated(d *document.Document) *document.Document {
	d2 := *d
	d2.Text = d.Text + " An additional note was appended on re-crawl."
	return &d2
}

// mutatePage derives the re-crawl shape of a page: the first document's
// paragraph changed, the last document dropped (when the page has more than
// one), the rest byte-identical. mals carries every document's alignments,
// which is also what a from-scratch build of the final corpus uses.
func mutatePage(g pageGroup) (mdocs []*document.Document, mals [][]core.Alignment) {
	mdocs = append(mdocs, mutated(g.docs[0]))
	mals = append(mals, g.als[0])
	for i := 1; i < len(g.docs)-1; i++ {
		mdocs = append(mdocs, g.docs[i])
		mals = append(mals, g.als[i])
	}
	return mdocs, mals
}

// corpusReader is the read surface assertStoreEqual compares: a Store, or
// the from-scratch oracle.
type corpusReader interface {
	Search(quantsearch.Query) []quantsearch.Result
	Entities() []string
	FactsFor(entity string) []facts.Fact
}

// scratch is the from-scratch oracle: a corpus indexed straight through
// quantsearch.Index.AddEntries and facts.View.Add in document order, sharing
// none of the store's write path.
type scratch struct {
	index *quantsearch.Index
	view  *facts.View
}

func buildScratch(docs []*document.Document, als [][]core.Alignment) *scratch {
	o := &scratch{index: quantsearch.NewIndex(), view: facts.NewView()}
	for i, d := range docs {
		o.index.AddEntries(quantsearch.EntriesFromDocument(d))
		o.view.Add(facts.Extract(d, als[i]))
	}
	o.index.EnsureValueOrder()
	return o
}

func (o *scratch) Search(q quantsearch.Query) []quantsearch.Result { return o.index.Search(q) }
func (o *scratch) Entities() []string                              { return o.view.Entities() }
func (o *scratch) FactsFor(entity string) []facts.Fact             { return o.view.Entity(entity) }

func assertStoreEqual(t *testing.T, got *Store, want corpusReader, label string) {
	t.Helper()
	for i, q := range battery() {
		if !reflect.DeepEqual(got.Search(q), want.Search(q)) {
			t.Fatalf("%s: query %d diverges from from-scratch build", label, i)
		}
	}
	g, w := got.Entities(), want.Entities()
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: entities diverge: %v vs %v", label, g, w)
	}
	for _, e := range w {
		if !reflect.DeepEqual(got.FactsFor(e), want.FactsFor(e)) {
			t.Fatalf("%s: facts for %q diverge from from-scratch build", label, e)
		}
	}
}

// TestDocumentKeyMatchesCorpusCache pins the one document identity end to
// end: after briq.AlignCorpus on a cached pipeline with the store as its sink,
// the serve cache holds every document under store.DocumentKey and the store
// files the same alignments under that key — or the corpus cache and the
// store would address one document two ways.
func TestDocumentKeyMatchesCorpusCache(t *testing.T) {
	cfg := corpus.TableSConfig(21)
	cfg.Pages = 3
	c := corpus.Generate(cfg)
	p := briq.New(briq.WithCache(8 << 20))
	s, err := Open(Options{Dir: t.TempDir(), Fingerprint: p.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p.Sink = s
	if _, err := briq.AlignCorpus(context.Background(), p, c.Docs); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Docs {
		k := s.DocumentKey(d)
		v, ok := p.Gate.Lookup(k)
		if !ok {
			t.Fatalf("doc %s: serve cache holds nothing under store.DocumentKey %s", d.ID, k)
		}
		cached := v.([]core.Alignment)
		stored, ok := s.Alignments(k)
		if !ok {
			t.Fatalf("doc %s: store holds nothing under its DocumentKey %s", d.ID, k)
		}
		if len(stored) != len(cached) || (len(cached) > 0 && !reflect.DeepEqual(stored, cached)) {
			t.Fatalf("doc %s: stored alignments %v, cached %v", d.ID, stored, cached)
		}
	}
}

// TestUpsertPageEquivalence is the tentpole acceptance gate at the store
// layer: upserting every page, then re-upserting a mutated version of each
// (one paragraph changed, one document dropped), must leave search and facts
// state identical to a from-scratch build of the final corpus — and identical
// again after close + replay.
func TestUpsertPageEquivalence(t *testing.T) {
	docs, als := alignedCorpus(t, 23, 6)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range groups {
		up := s.UpsertPage(g.id, g.docs, g.als)
		for i, r := range up.Reused {
			if r {
				t.Fatalf("cold upsert of %s reports doc %d reused", g.id, i)
			}
		}
		if up.Retracted != 0 {
			t.Fatalf("cold upsert of %s retracted %d docs", g.id, up.Retracted)
		}
	}

	// An identical re-upsert reuses everything, retracts nothing, and writes
	// nothing to the log.
	logPath := filepath.Join(dir, "corpus.ndjson")
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		up := s.UpsertPage(g.id, g.docs, g.als)
		for i, r := range up.Reused {
			if !r {
				t.Fatalf("identical re-upsert of %s reports doc %d fresh", g.id, i)
			}
		}
		if up.Retracted != 0 {
			t.Fatalf("identical re-upsert of %s retracted %d docs", g.id, up.Retracted)
		}
	}
	if after, _ := os.Stat(logPath); after.Size() != before.Size() {
		t.Errorf("identical re-upserts grew the log by %d bytes", after.Size()-before.Size())
	}

	// The mutated crawl: reuse flags and retraction counts per page, and the
	// final corpus collected for the from-scratch comparison.
	var finalDocs []*document.Document
	var finalAls [][]core.Alignment
	for _, g := range groups {
		mdocs, mals := mutatePage(g)
		up := s.UpsertPage(g.id, mdocs, mals)
		if up.Reused[0] {
			t.Fatalf("page %s: mutated document reported reused", g.id)
		}
		for i := 1; i < len(mdocs); i++ {
			if !up.Reused[i] {
				t.Fatalf("page %s: unchanged document %d reported fresh", g.id, i)
			}
		}
		wantRetracted := 1 // the first document's old identity
		if len(g.docs) >= 2 {
			wantRetracted = 2 // plus the dropped last document
		}
		if up.Retracted != wantRetracted {
			t.Fatalf("page %s: retracted %d docs, want %d", g.id, up.Retracted, wantRetracted)
		}
		finalDocs = append(finalDocs, mdocs...)
		finalAls = append(finalAls, mals...)
	}

	rebuilt := buildScratch(finalDocs, finalAls)
	assertStoreEqual(t, s, rebuilt, "after mutated upserts")

	c := s.Counters()
	if c["live_documents"] != int64(len(finalDocs)) {
		t.Errorf("live_documents = %d, want %d", c["live_documents"], len(finalDocs))
	}
	if c["retracted_documents"] == 0 || c["upserted_pages"] == 0 {
		t.Errorf("upsert counters did not move: %v", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay reconstructs the latest-wins view, not the full history.
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertStoreEqual(t, s2, rebuilt, "after replay")
	if got := s2.Counters()["live_documents"]; got != int64(len(finalDocs)) {
		t.Errorf("replayed live_documents = %d, want %d", got, len(finalDocs))
	}
}

// TestUpsertPageFlipReaccepts drives the A→B→A page history: a document
// retracted by one crawl must be accepted again when a later crawl restores
// byte-identical content (its key was freed, not tombstoned forever).
func TestUpsertPageFlipReaccepts(t *testing.T) {
	docs, als := alignedCorpus(t, 29, 3)
	var g pageGroup
	for _, cand := range groupByPage(docs, als) {
		if len(cand.docs) >= 2 {
			g = cand
			break
		}
	}
	if len(g.docs) < 2 {
		t.Fatal("corpus has no multi-document page")
	}

	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	s.UpsertPage(g.id, g.docs, g.als)

	// Crawl B drops the first document.
	up := s.UpsertPage(g.id, g.docs[1:], g.als[1:])
	if up.Retracted != 1 {
		t.Fatalf("drop crawl retracted %d, want 1", up.Retracted)
	}

	// Crawl A again: the dropped document returns, identical content.
	back := s.UpsertPage(g.id, g.docs, g.als)
	if back.Reused[0] {
		t.Fatal("re-added document reported reused — retraction left its key seen")
	}
	for i := 1; i < len(g.docs); i++ {
		if !back.Reused[i] {
			t.Fatalf("surviving document %d reported fresh on flip-back", i)
		}
	}

	assertStoreEqual(t, s, buildScratch(g.docs, g.als), "after A→B→A flip")
}

// TestUpsertPageReorder covers the pure-reorder upsert: same documents, new
// order, nothing fresh and nothing stale. Shared-table attribution must
// follow the new first presenter, the order must persist (a bare retract
// record carries it), and replay must agree with a from-scratch build that
// saw the documents in the new order.
func TestUpsertPageReorder(t *testing.T) {
	docs, als := alignedCorpus(t, 43, 4)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		s.UpsertPage(g.id, g.docs, g.als)
	}

	var finalDocs []*document.Document
	var finalAls [][]core.Alignment
	for _, g := range groups {
		rdocs := make([]*document.Document, len(g.docs))
		rals := make([][]core.Alignment, len(g.docs))
		for i := range g.docs {
			rdocs[i] = g.docs[len(g.docs)-1-i]
			rals[i] = g.als[len(g.als)-1-i]
		}
		up := s.UpsertPage(g.id, rdocs, rals)
		for i, r := range up.Reused {
			if !r {
				t.Fatalf("page %s: reorder reported doc %d fresh", g.id, i)
			}
		}
		if up.Retracted != 0 {
			t.Fatalf("page %s: reorder retracted %d docs", g.id, up.Retracted)
		}
		finalDocs = append(finalDocs, rdocs...)
		finalAls = append(finalAls, rals...)
	}

	rebuilt := buildScratch(finalDocs, finalAls)
	assertStoreEqual(t, s, rebuilt, "after reorder upserts")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertStoreEqual(t, s2, rebuilt, "replay after reorder upserts")
}

// TestUpsertTornSupersede is the crash-safety satellite: a crash that tears
// the first record of an upsert — the line carrying both the retraction and
// the first fresh document — must leave replay on the previous crawl's
// complete state, not half-retracted.
func TestUpsertTornSupersede(t *testing.T) {
	docs, als := alignedCorpus(t, 31, 3)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		s1.UpsertPage(g.id, g.docs, g.als)
	}
	want := make([]any, len(battery()))
	for i, q := range battery() {
		want[i] = s1.Search(q)
	}
	wantEntities := s1.Entities()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "corpus.ndjson")
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	v1Size := st.Size()

	// The mutated crawl of page 0 appends its upsert records...
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	mdocs, mals := mutatePage(groups[0])
	if up := s2.UpsertPage(groups[0].id, mdocs, mals); up.Retracted == 0 {
		t.Fatal("mutated upsert retracted nothing — test shape is wrong")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// ...and the crash tears its first record mid-line.
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) <= v1Size {
		t.Fatal("upsert appended nothing to tear")
	}
	lineEnd := bytes.IndexByte(data[v1Size:], '\n')
	if lineEnd <= 1 {
		t.Fatalf("first upsert record is %d bytes", lineEnd)
	}
	cut := v1Size + int64(lineEnd)/2
	if err := os.Truncate(logPath, cut); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Counters()["replay_skipped"]; got != 1 {
		t.Errorf("replay_skipped = %d, want 1", got)
	}
	for i, q := range battery() {
		if !reflect.DeepEqual(s3.Search(q), want[i]) {
			t.Fatalf("query %d: torn supersede record corrupted the previous crawl's state", i)
		}
	}
	if got := s3.Entities(); !reflect.DeepEqual(got, wantEntities) {
		t.Errorf("entities diverge after torn-tail replay")
	}
}

// TestConcurrentUpsertSearchReplay exercises upserts, searches and facts
// reads racing across pages (run with -race), then checks the quiesced state
// and its replay both match a from-scratch build of the final corpus.
func TestConcurrentUpsertSearchReplay(t *testing.T) {
	docs, als := alignedCorpus(t, 37, 8)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}

	var finalMu sync.Mutex
	var finalDocs []*document.Document
	var finalAls [][]core.Alignment
	var wg sync.WaitGroup
	for _, g := range groups {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.UpsertPage(g.id, g.docs, g.als)
			mdocs, mals := mutatePage(g)
			s.UpsertPage(g.id, mdocs, mals)
			finalMu.Lock()
			finalDocs = append(finalDocs, mdocs...)
			finalAls = append(finalAls, mals...)
			finalMu.Unlock()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, q := range battery() {
				s.Search(q)
			}
			for _, e := range s.Entities() {
				s.FactsFor(e)
			}
		}
	}()
	wg.Wait()

	// Document order only matters within a page (shared-table attribution);
	// finalDocs preserves per-page order even though pages interleaved.
	rebuilt := buildScratch(finalDocs, finalAls)
	assertStoreEqual(t, s, rebuilt, "quiesced after concurrent upserts")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertStoreEqual(t, s2, rebuilt, "replay after concurrent upserts")
}
