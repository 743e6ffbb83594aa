package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/quantsearch"
	"briq/internal/serve"
)

const testFP = "fp-store-test"

// alignedCorpus returns generated documents with their pipeline alignments.
func alignedCorpus(t *testing.T, seed int64, pages int) ([]*document.Document, [][]core.Alignment) {
	t.Helper()
	cfg := corpus.TableSConfig(seed)
	cfg.Pages = pages
	c := corpus.Generate(cfg)
	p := core.NewPipeline()
	als := make([][]core.Alignment, len(c.Docs))
	for i, doc := range c.Docs {
		als[i] = p.Align(doc)
	}
	return c.Docs, als
}

func battery() []quantsearch.Query {
	return []quantsearch.Query{
		{Op: quantsearch.Above, Value: 0},
		{Op: quantsearch.Below, Value: 1000},
		{Op: quantsearch.Between, Value: 5, Value2: 500},
		{Op: quantsearch.Above, Value: 10, Unit: "USD"},
		{Keywords: []string{"total"}, Op: quantsearch.Above, Value: 0},
		{Keywords: []string{"revenue", "income"}, Op: quantsearch.Below, Value: 1e9},
	}
}

func TestPersistReplayEquivalence(t *testing.T) {
	docs, als := alignedCorpus(t, 3, 8)
	dir := t.TempDir()

	s1, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		s1.AddDocument(doc, als[i])
	}
	want := make([][]quantsearch.Result, len(battery()))
	for i, q := range battery() {
		want[i] = s1.Search(q)
	}
	wantEntities := s1.Entities()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	gate := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	for i, q := range battery() {
		got := s2.Search(q)
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("query %d: replayed store returns %d results, want %d", i, len(got), len(want[i]))
		}
	}
	if got := s2.Entities(); !reflect.DeepEqual(got, wantEntities) {
		t.Errorf("entities diverge after replay: %v vs %v", got, wantEntities)
	}
	for _, e := range wantEntities {
		if !reflect.DeepEqual(s2.FactsFor(e), s1.FactsFor(e)) {
			t.Errorf("facts for %q diverge after replay", e)
		}
	}

	c := s2.Counters()
	if c["warm_documents"] != int64(len(docs)) || c["documents"] != int64(len(docs)) {
		t.Errorf("warm counters = %v, want %d docs", c, len(docs))
	}

	// The gate was warm-loaded: every stored document is a cache hit.
	for i, doc := range docs {
		v, ok := gate.Lookup(s2.DocumentKey(doc))
		if !ok {
			t.Fatalf("doc %d not warm in gate", i)
		}
		got := v.([]core.Alignment)
		if len(got) != len(als[i]) {
			t.Errorf("doc %d: warm alignments %d, want %d", i, len(got), len(als[i]))
		}
		for j := range got {
			if got[j] != als[i][j] {
				t.Errorf("doc %d alignment %d: %+v != %+v (Agg round-trip?)", i, j, got[j], als[i][j])
			}
		}
	}
}

// TestIncrementalVsRebuild is the acceptance equivalence test: the store's
// incrementally-built index must match a from-scratch rebuild of the stored
// corpus, at every prefix.
func TestIncrementalVsRebuild(t *testing.T) {
	docs, als := alignedCorpus(t, 5, 6)
	s, err := Open(Options{Dir: t.TempDir(), Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	view := facts.NewView()
	for n, doc := range docs {
		s.AddDocument(doc, als[n])
		view.Add(facts.Extract(doc, als[n]))

		rebuilt := quantsearch.BuildIndex(docs[:n+1])
		for _, q := range battery() {
			if !reflect.DeepEqual(s.Search(q), rebuilt.Search(q)) {
				t.Fatalf("after %d docs, query %+v: incremental store != rebuilt index", n+1, q)
			}
		}
		for _, e := range view.Entities() {
			if !reflect.DeepEqual(s.FactsFor(e), view.Entity(e)) {
				t.Fatalf("after %d docs: facts for %q diverge from rebuilt view", n+1, e)
			}
		}
	}
}

func TestTornTailSkipped(t *testing.T) {
	docs, als := alignedCorpus(t, 7, 4)
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		s1.AddDocument(doc, als[i])
	}
	want := s1.Search(battery()[0])
	s1.Close()

	// Simulate a crash mid-append: a torn, non-JSON final line.
	f, err := os.OpenFile(filepath.Join(dir, "corpus.ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"doc","key":"abc123","trunc`)
	f.Close()

	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Counters()["replay_skipped"]; got != 1 {
		t.Errorf("replay_skipped = %d, want 1", got)
	}
	if got := s2.Search(battery()[0]); !reflect.DeepEqual(got, want) {
		t.Error("torn tail corrupted replayed state")
	}
}

func TestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(Options{Dir: dir, Fingerprint: "fp-b"}); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
	// "" adopts the recorded fingerprint — the offline reader path.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Fingerprint() != "fp-a" {
		t.Errorf("adopted fingerprint = %q, want fp-a", s2.Fingerprint())
	}
}

// TestOlderVersionRefused: a directory written under an older record
// format is refused, not replayed under the current one.
func TestOlderVersionRefused(t *testing.T) {
	dir := t.TempDir()
	old := []byte(`{"version": 2, "fingerprint": "` + testFP + `"}`)
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err == nil || !strings.Contains(err.Error(), "version 2, want 3") {
		t.Fatalf("err = %v, want a version refusal", err)
	}
}

// TestConcurrentAddAndSearch exercises the lazy value-order maintenance
// under concurrency (run with -race): adds leave the index's value postings
// dirty, Search restores order under the write lock and queries under the
// read lock, and an add landing between the two must not corrupt results —
// every search must agree with a quiesced re-run of the same query.
func TestConcurrentAddAndSearch(t *testing.T) {
	docs, als := alignedCorpus(t, 13, 12)
	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, doc := range docs {
			s.AddDocument(doc, als[i])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, q := range battery() {
				s.Search(q)
			}
		}
	}()
	wg.Wait()

	// Quiesced, results must match a from-scratch rebuild of the same docs.
	rebuilt := buildScratch(docs, als)
	for _, q := range battery() {
		if !reflect.DeepEqual(s.Search(q), rebuilt.Search(q)) {
			t.Fatalf("query %+v: concurrent-add store disagrees with rebuild", q)
		}
	}
}

// TestReaderModeNeverCreates: opening with Fingerprint "" (offline readers,
// briq-search -store) must fail on a directory that is not a store instead of
// silently materializing a fresh empty one — a mistyped path should be an
// error, not 0 results plus a junk directory with fingerprint "".
func TestReaderModeNeverCreates(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-store")
	if _, err := Open(Options{Dir: missing}); !errors.Is(err, ErrNotStore) {
		t.Fatalf("err = %v, want ErrNotStore", err)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("reader-mode Open created the directory")
	}

	// An existing directory without meta.json is equally not a store.
	empty := t.TempDir()
	if _, err := Open(Options{Dir: empty}); !errors.Is(err, ErrNotStore) {
		t.Fatalf("err = %v, want ErrNotStore", err)
	}
	if _, err := os.Stat(filepath.Join(empty, "meta.json")); !os.IsNotExist(err) {
		t.Fatal("reader-mode Open wrote meta.json")
	}

	// A writer (real fingerprint) still creates stores from nothing.
	s, err := Open(Options{Dir: missing, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(Options{Dir: missing}) // and now the reader adopts it
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Fingerprint() != testFP {
		t.Errorf("adopted fingerprint = %q, want %q", s2.Fingerprint(), testFP)
	}
}

func TestDuplicateDocumentDropped(t *testing.T) {
	docs, als := alignedCorpus(t, 9, 2)
	s, err := Open(Options{Fingerprint: testFP}) // memory-only
	if err != nil {
		t.Fatal(err)
	}
	s.AddDocument(docs[0], als[0])
	size := s.Counters()["index_entries"]
	s.AddDocument(docs[0], als[0])
	c := s.Counters()
	if c["documents"] != 1 || c["live_documents"] != 1 {
		t.Errorf("counters = %v, want 1 document", c)
	}
	if c["index_entries"] != size {
		t.Error("duplicate add changed the index")
	}
	if c["persistent"] != 0 || c["log_bytes"] != 0 {
		t.Errorf("memory-only store reports persistence: %v", c)
	}
}

// TestPageKeyWarmth: an align upsert's page key comes back warm after a
// restart for every version of the page the log holds — the latest and a
// superseded one — each with the answer its page request returned, and
// the document keys of the latest version are warm too.
func TestPageKeyWarmth(t *testing.T) {
	docs, als := alignedCorpus(t, 11, 3)
	groups := groupByPage(docs, als)
	if len(groups) < 2 {
		t.Fatalf("corpus has %d pages, want at least 2", len(groups))
	}
	dir := t.TempDir()
	gate := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	// Two versions of one page, written the way the align path writes them:
	// the same page ID, each version's own documents and page key.
	type version struct {
		key  serve.Key
		want []core.Alignment
	}
	var versions []version
	for i, g := range groups[:2] {
		key := gate.PageKey("request", fmt.Sprintf("<html>version %d</html>", i))
		var pageDocs []*document.Document
		var pageAls [][]core.Alignment
		var want []core.Alignment
		for j, d := range g.docs {
			d2 := *d
			d2.PageID = "request"
			pageDocs = append(pageDocs, &d2)
			pageAls = append(pageAls, g.als[j])
			want = append(want, g.als[j]...)
		}
		s.WritePage(core.PageWrite{PageID: "request", Docs: pageDocs, Alignments: pageAls, PageKey: key})
		versions = append(versions, version{key, want})
	}
	if c := s.Counters(); c["live_documents"] != int64(len(groups[1].docs)) {
		t.Errorf("live_documents = %d, want the latest version's %d", c["live_documents"], len(groups[1].docs))
	}
	s.Close()

	gate2 := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, v := range versions {
		got, ok := gate2.Lookup(v.key)
		if !ok {
			t.Errorf("version %d: page key not warm after restart", i)
			continue
		}
		if !reflect.DeepEqual(got, v.want) {
			t.Errorf("version %d: warm page answer differs from the page request's", i)
		}
	}
	for _, d := range groups[1].docs {
		d2 := *d
		d2.PageID = "request"
		if _, ok := gate2.Lookup(s2.DocumentKey(&d2)); !ok {
			t.Errorf("doc %s not warm after restart", d.ID)
		}
	}
}

func TestNilStoreCounters(t *testing.T) {
	var s *Store
	c := s.Counters()
	if len(c) != len(CounterNames()) {
		t.Fatalf("nil Counters has %d keys, want %d", len(c), len(CounterNames()))
	}
	for _, name := range CounterNames() {
		if v, ok := c[name]; !ok || v != 0 {
			t.Errorf("counter %q = %d, %v", name, v, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// TestSinkIntegration drives the store through the facade seam: a pipeline
// with Sink + Gate persists each page's documents once.
func TestSinkIntegration(t *testing.T) {
	docs, _ := alignedCorpus(t, 13, 3)
	p := core.NewPipeline()
	p.Gate = serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s, err := Open(Options{Dir: t.TempDir(), Fingerprint: testFP, Gate: p.Gate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p.Sink = s

	for _, g := range groupByPage(docs, make([][]core.Alignment, len(docs))) {
		for i, doc := range g.docs {
			g.als[i] = p.Align(doc)
		}
		p.Sink.WritePage(core.PageWrite{PageID: g.id, Docs: g.docs, Alignments: g.als})
	}
	c := s.Counters()
	if c["documents"] != int64(len(docs)) {
		t.Errorf("documents = %d, want %d", c["documents"], len(docs))
	}
	if s.Search(quantsearch.Query{Op: quantsearch.Above, Value: 0}) == nil {
		t.Error("no searchable entries after sink feeds")
	}
}
