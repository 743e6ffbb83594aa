// Package store is the persistent aligned-corpus store: every aligned page
// is recorded on disk, content-addressed by the same SHA-256(model
// fingerprint + content) identity the serve cache uses, and feeds an
// incrementally-maintained quantity index (quantsearch postings by keyword,
// unit and value) plus a per-entity facts view. There is no batch rebuild
// step: the in-memory index state after any sequence of writes is equivalent
// to re-indexing the stored corpus from scratch, and a restart replays the
// log to recover exactly that state — warm-loading the serve cache on the
// way.
//
// The page is the unit of every write. Upsert — reached by the align sink
// (WritePage), UpsertPage, AddDocument and the ingest path alike — replaces
// a page's document set: stale documents are retracted from the index and
// facts view, unchanged documents are kept byte-for-byte, and the log
// records which keys each upsert supersedes so replay reconstructs the same
// latest-wins view. The invariant, gated by tests, is that the incremental
// state after any write sequence is byte-identical (Search and FactsFor
// output) to a from-scratch build of the final corpus.
//
// The on-disk format is an append-only NDJSON log (corpus.ndjson) beside a
// meta.json recording the model fingerprint. Appends are synchronous with
// alignment but never fail it: persistence errors are counted and logged. A
// torn final line (crash mid-append) is skipped on replay and cut off before
// the next append, so the first record after a restart starts on a line of
// its own. A torn supersede record leaves the previous page version fully
// intact — the retraction and the first fresh document travel on one line.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/quantsearch"
	"briq/internal/serve"
)

// ErrFingerprintMismatch reports an existing store directory written under a
// different model fingerprint — its keys and alignments would not match the
// running pipeline. Point the server at a fresh directory (or the matching
// model bundle).
var ErrFingerprintMismatch = errors.New("store: model fingerprint does not match store directory")

// ErrNotStore reports a reader-mode Open (Fingerprint "") pointed at a
// directory with no meta.json. Readers never create stores — a mistyped path
// should fail loudly, not materialize a fresh empty store that answers every
// query with zero results.
var ErrNotStore = errors.New("store: directory is not a store (no meta.json)")

const (
	logName  = "corpus.ndjson"
	metaName = "meta.json"
	// version 3: the log holds only doc and retract records, written by
	// whole-page upserts, and align upserts carry the page_key that warms
	// the page cache on replay. Older stores are refused rather than
	// replayed under a record format they were not written in.
	version = 3
)

// Options configures Open.
type Options struct {
	// Dir is the store directory; "" runs the store memory-only (the
	// quantity index and facts view still work, nothing persists).
	Dir string
	// Fingerprint is the pipeline's model fingerprint. It scopes every key.
	// "" adopts the fingerprint recorded in an existing directory (offline
	// readers); a non-"" value must match the directory's meta.json.
	Fingerprint string
	// Gate, when non-nil, is warm-loaded on Open with the replayed document
	// alignments and with the page answers of align upserts.
	Gate *serve.Engine
	// Logf receives non-fatal store problems (persist errors, skipped
	// replay lines). nil discards.
	Logf func(format string, args ...any)
}

// Store is the persistent aligned-corpus store. All methods are safe for
// concurrent use; Counters is additionally safe on a nil *Store.
type Store struct {
	mu    sync.RWMutex
	dir   string
	fp    string
	gate  *serve.Engine
	logf  func(string, ...any)
	logF  *os.File // append handle; nil in memory mode
	index *quantsearch.Index
	view  *facts.View
	docs  map[serve.Key]*docState // live document records
	pages map[string][]serve.Key  // page ID → live doc keys in page order

	// firstPersistErr logs the first failed append through the standard
	// logger exactly once, so silent data loss is visible even when
	// Options.Logf discards (e.g. -quiet servers).
	firstPersistErr sync.Once

	c counters
}

// docState is the in-memory materialization of one live document record —
// everything needed to serve it, re-attribute its tables, or retract it.
type docState struct {
	docID   string
	als     []core.Alignment
	entries []quantsearch.Entry
	facts   []facts.Fact
	tables  []string // unique table IDs of entries, in first-seen order
}

type counters struct {
	documents     int64 // doc records accepted (fresh + replayed)
	warmDocuments int64 // doc records replayed from disk at Open
	replaySkipped int64 // undecodable/torn log lines skipped at Open
	persistErrors int64 // appends that failed (state kept in memory)
	upsertedPages int64 // page upserts accepted
	retractedDocs int64 // stale documents retracted by upserts (incl. replay)

	// Query counters are atomic so concurrent reads share the RLock.
	searches     atomic.Int64
	factsQueries atomic.Int64
}

// record is one NDJSON log line. Kind "doc" is a stored document, "retract"
// an upsert that added no document (a pure retraction or reorder).
//
// Upsert atomicity rides on line atomicity: Supersedes travels on the FIRST
// record of an upsert, so a torn line means neither the retraction nor the
// addition applied and the previous page version replays intact. PageDocs —
// the page's final ordered document keys — travels on every record; replay
// re-walks that order so shared-table attribution matches a from-scratch
// build. PageKey travels on the LAST record of an align upsert: once it
// replays, the whole page is live and its answer can warm the page cache.
type record struct {
	Kind       string              `json:"kind"` // "doc" | "retract"
	Key        string              `json:"key,omitempty"`
	DocID      string              `json:"doc_id,omitempty"`
	PageID     string              `json:"page_id,omitempty"`
	Alignments []WireAlignment     `json:"alignments,omitempty"`
	Entries    []quantsearch.Entry `json:"entries,omitempty"`
	Facts      []facts.Fact        `json:"facts,omitempty"`
	Supersedes []string            `json:"supersedes,omitempty"` // doc keys this record retracts
	PageDocs   []string            `json:"page_docs,omitempty"`  // PageID's final ordered doc keys
	PageKey    string              `json:"page_key,omitempty"`   // page-cache key of the align request
}

type meta struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// Open opens (or creates) the store and replays the log into the quantity
// index, facts view and — when a Gate is given — the serve cache. A writer
// (non-"" Fingerprint) first cuts a torn final line off the log. Close
// releases the append handle.
func Open(opts Options) (*Store, error) {
	s := &Store{
		dir:   opts.Dir,
		fp:    opts.Fingerprint,
		gate:  opts.Gate,
		logf:  opts.Logf,
		index: quantsearch.NewIndex(),
		view:  facts.NewView(),
		docs:  make(map[serve.Key]*docState),
		pages: make(map[string][]serve.Key),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if opts.Dir != "" {
		// Reader mode (Fingerprint "") adopts an existing store and must
		// never create one: a mistyped -store path is an error, not a fresh
		// empty store with fingerprint "".
		if opts.Fingerprint == "" {
			if _, err := os.Stat(filepath.Join(opts.Dir, metaName)); err != nil {
				if os.IsNotExist(err) {
					return nil, fmt.Errorf("%w: %s", ErrNotStore, opts.Dir)
				}
				return nil, fmt.Errorf("store: %w", err)
			}
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := s.checkMeta(); err != nil {
			return nil, err
		}
		if err := s.replay(opts.Fingerprint != ""); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(filepath.Join(opts.Dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.logF = f
	}
	return s, nil
}

// checkMeta validates or creates meta.json, adopting the directory's
// fingerprint when Options.Fingerprint was "".
func (s *Store) checkMeta() error {
	path := filepath.Join(s.dir, metaName)
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		var m meta
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("store: bad %s: %w", metaName, err)
		}
		if m.Version != version {
			return fmt.Errorf("store: %s version %d, want %d (record format changed; re-align into a fresh directory)",
				metaName, m.Version, version)
		}
		if s.fp == "" {
			s.fp = m.Fingerprint
			return nil
		}
		if m.Fingerprint != s.fp {
			return fmt.Errorf("%w: store has %.12s…, pipeline has %.12s…",
				ErrFingerprintMismatch, m.Fingerprint, s.fp)
		}
		return nil
	case os.IsNotExist(err):
		b, _ := json.MarshalIndent(meta{Version: version, Fingerprint: s.fp}, "", "  ")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("store: %w", err)
	}
}

// replay streams the log, rebuilding in-memory state and warming the gate.
// Undecodable lines are counted and skipped. Supersede records re-apply
// their retractions so the final state is the latest-wins view of every
// page. A final line without its newline is a torn append that was never
// acknowledged: it is skipped, and with truncate set the log is cut back to
// the end of its last complete line, so the next append cannot be glued to
// the fragment.
func (s *Store) replay(truncate bool) error {
	path := filepath.Join(s.dir, logName)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}

	var complete int64 // end of the last newline-terminated line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	sc.Split(func(data []byte, _ bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			complete += int64(i + 1)
			return i + 1, data[:i], nil
		}
		return 0, nil, nil // an unterminated tail is never returned
	})
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			s.replayLine(line)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: replaying log: %w", err)
	}
	if torn := fi.Size() - complete; torn > 0 {
		s.skip("torn final log line (%d bytes)", torn)
		if truncate {
			if err := os.Truncate(path, complete); err != nil {
				return fmt.Errorf("store: cutting torn log tail: %w", err)
			}
		}
	}
	// One batch sort for the whole replay instead of per-record inserts.
	s.index.EnsureValueOrder()
	return nil
}

// replayLine applies one complete log line.
func (s *Store) replayLine(line []byte) {
	var r record
	if err := json.Unmarshal(line, &r); err != nil {
		s.skip("undecodable log line: %v", err)
		return
	}
	var key serve.Key
	switch r.Kind {
	case "doc":
		var err error
		if key, err = serve.ParseKey(r.Key); err != nil {
			s.skip("log line: %v", err)
			return
		}
	case "retract":
	default:
		s.skip("log line with unknown kind %q", r.Kind)
		return
	}
	// Retraction first: the superseded keys are never the record's own (an
	// upsert's fresh docs are disjoint from its stale ones).
	for _, k := range s.parseKeys(r.Supersedes) {
		s.retractDoc(k)
	}
	if _, live := s.docs[key]; r.Kind == "doc" && !live {
		als := FromWire(r.Alignments)
		s.registerDoc(key, &docState{
			docID:   r.DocID,
			als:     als,
			entries: r.Entries,
			facts:   r.Facts,
			tables:  tablesOf(r.Entries),
		})
		s.c.warmDocuments++
		s.gate.Store(key, als, core.AlignmentsSize(als))
	}
	// The page list names live documents only. One is missing when a record
	// of its upsert was skipped, and the page answer is then not warmed.
	var keys []serve.Key
	for _, k := range s.parseKeys(r.PageDocs) {
		if _, live := s.docs[k]; live {
			keys = append(keys, k)
		}
	}
	s.installPage(r.PageID, keys)
	if r.PageKey != "" && len(keys) == len(r.PageDocs) {
		s.warmPage(r.PageKey, keys)
	}
}

// skip counts and logs one log item replay cannot apply.
func (s *Store) skip(format string, args ...any) {
	s.c.replaySkipped++
	s.logf("store: skipping "+format, args...)
}

// parseKeys decodes logged keys, skipping undecodable ones.
func (s *Store) parseKeys(strs []string) []serve.Key {
	keys := make([]serve.Key, 0, len(strs))
	for _, ks := range strs {
		if k, err := serve.ParseKey(ks); err != nil {
			s.skip("bad key: %v", err)
		} else {
			keys = append(keys, k)
		}
	}
	return keys
}

// warmPage stores a replayed align upsert's page answer — the page's
// document alignments concatenated in page order, as the page request
// returned them — under its page-cache key.
func (s *Store) warmPage(keyStr string, keys []serve.Key) {
	pageKey, err := serve.ParseKey(keyStr)
	if err != nil {
		s.skip("bad page_key: %v", err)
		return
	}
	var als []core.Alignment
	for _, k := range keys {
		als = append(als, s.docs[k].als...)
	}
	s.gate.Store(pageKey, als, core.AlignmentsSize(als))
}

// Close releases the append handle. The in-memory index stays usable.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logF == nil {
		return nil
	}
	err := s.logF.Close()
	s.logF = nil
	return err
}

// Fingerprint returns the model fingerprint scoping the store's keys (the
// adopted one, for readers that opened with Fingerprint "").
func (s *Store) Fingerprint() string { return s.fp }

// DocumentKey returns the content address the store files a document under —
// identical to the serve cache's corpus-path key for the same fingerprint,
// composed from the per-part content digests so ingest can tell which half
// of a document moved.
func (s *Store) DocumentKey(doc *document.Document) serve.Key {
	text, tables := core.DocumentParts(doc)
	return serve.DocKeyOf(s.fp, doc.ID, doc.PageID, text, tables)
}

// Alignments returns the stored alignments for a live document identity.
// The ingest path uses it as the reuse check: a hit means classify/filter/
// resolve can be skipped for that document entirely.
func (s *Store) Alignments(key serve.Key) ([]core.Alignment, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, ok := s.docs[key]
	if !ok {
		return nil, false
	}
	return ds.als, true
}

// docStateOf derives the stored shape of one document.
func docStateOf(doc *document.Document, alignments []core.Alignment) *docState {
	entries := quantsearch.EntriesFromDocument(doc)
	return &docState{
		docID:   doc.ID,
		als:     alignments,
		entries: entries,
		facts:   facts.Extract(doc, alignments),
		tables:  tablesOf(entries),
	}
}

func tablesOf(entries []quantsearch.Entry) []string {
	var out []string
	seen := map[string]bool{}
	for _, e := range entries {
		if !seen[e.TableID] {
			seen[e.TableID] = true
			out = append(out, e.TableID)
		}
	}
	return out
}

// registerDoc records a live document under the held write lock: identity
// map, facts, counters. Index entries and page order are installPage's —
// their order matters for shared-table attribution.
func (s *Store) registerDoc(key serve.Key, ds *docState) {
	s.docs[key] = ds
	s.view.Add(ds.facts)
	s.c.documents++
}

// retractDoc removes one live document under the held write lock: its
// tables leave the index (table IDs are page-scoped, so only same-page
// documents can share them — installPage's final-order walk re-adds entries
// for surviving documents), its facts leave the view, and its key becomes
// free so a later re-ingest of identical content is accepted again.
func (s *Store) retractDoc(key serve.Key) {
	ds, ok := s.docs[key]
	if !ok {
		return
	}
	s.index.RemoveTables(ds.tables)
	s.view.Remove(ds.facts)
	delete(s.docs, key)
	s.c.retractedDocs++
}

// installPage sets a page's final order of live document keys and
// re-attributes the page's tables along it: a table referenced by several
// documents of the page is indexed from the first one in final page order —
// exactly what a from-scratch build of the final corpus does. When the old
// order is a prefix of the new one (a cold page, or documents appended)
// only the appended documents need indexing; otherwise every document's
// tables leave the index and re-enter in order. Removal must complete for
// the whole page before any re-add, or a shared table re-added for an early
// document would be tombstoned again when a later document's old tables are
// dropped.
func (s *Store) installPage(pageID string, keys []serve.Key) {
	old := s.pages[pageID]
	if len(keys) == 0 {
		delete(s.pages, pageID)
	} else {
		s.pages[pageID] = keys
	}
	from := len(old)
	if from > len(keys) || !slices.Equal(old, keys[:from]) {
		from = 0
		for _, k := range keys {
			if ds, ok := s.docs[k]; ok {
				s.index.RemoveTables(ds.tables)
			}
		}
	}
	for _, k := range keys[from:] {
		if ds, ok := s.docs[k]; ok {
			s.index.AddEntries(ds.entries)
		}
	}
}

// AddDocument records one document as a one-document upsert into its page:
// the page keeps its other live documents, and this one takes the place of
// the live version with the same document ID, else joins the page at the
// end. Re-adding a live identity changes nothing.
func (s *Store) AddDocument(doc *document.Document, alignments []core.Alignment) {
	s.upsert(core.PageWrite{
		PageID:     doc.PageID,
		Docs:       []*document.Document{doc},
		Alignments: [][]core.Alignment{alignments},
	}, true)
}

// UpsertPage is Upsert without precomputed keys.
func (s *Store) UpsertPage(pageID string, docs []*document.Document, alignments [][]core.Alignment) PageUpsert {
	return s.Upsert(core.PageWrite{PageID: pageID, Docs: docs, Alignments: alignments})
}

// WritePage implements core.AlignmentSink.
func (s *Store) WritePage(w core.PageWrite) { s.Upsert(w) }

// PageUpsert reports what one upsert did.
type PageUpsert struct {
	// Reused is per input document: true when a live record with the same
	// content identity already existed and was kept untouched.
	Reused []bool
	// Retracted counts the page's stale documents removed by this upsert.
	Retracted int
	// PersistErrors counts append failures while persisting this upsert
	// (the in-memory view is still updated; the loss is durability only).
	PersistErrors int64
}

// Upsert is the store's one write path. It replaces page w.PageID's
// document set with w.Docs, in order; every document's PageID must be
// w.PageID. A document whose content identity is already live keeps its
// record, and its w.Alignments entry is not used; any other document is
// recorded with its entry. Stale documents — live for this page but absent
// from w.Docs — are retracted from the index and facts view, and the log
// records the retraction on the upsert's first line so replay reconstructs
// the same latest-wins state. A page whose documents did not change writes
// nothing. An empty w.Docs retracts the whole page. Persistence failures
// never fail the caller.
func (s *Store) Upsert(w core.PageWrite) PageUpsert { return s.upsert(w, false) }

// slot is one document position of a page write. doc, als and st are set
// only for a document that was not live when the write began.
type slot struct {
	key serve.Key
	doc *document.Document
	als []core.Alignment
	st  *docState
}

// upsert implements Upsert; with join set, w holds one document that joins
// the page's live set instead of replacing it (AddDocument).
func (s *Store) upsert(w core.PageWrite, join bool) PageUpsert {
	slots := make([]slot, len(w.Docs))
	for i, d := range w.Docs {
		slots[i] = slot{doc: d, als: w.Alignments[i]}
		if w.Keys != nil {
			slots[i].key = w.Keys[i]
		} else {
			slots[i].key = s.DocumentKey(d)
		}
	}
	// Derive the stored shape outside the write lock, and only for
	// documents that are not live. One retracted in between is derived
	// under the lock below.
	var fresh []int
	s.mu.RLock()
	for i := range slots {
		if _, live := s.docs[slots[i].key]; !live {
			fresh = append(fresh, i)
		}
	}
	s.mu.RUnlock()
	for _, i := range fresh {
		slots[i].st = docStateOf(slots[i].doc, slots[i].als)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.pages[w.PageID]
	if join {
		page := make([]slot, len(old))
		for i, k := range old {
			page[i].key = k
		}
		at := slices.IndexFunc(old, func(k serve.Key) bool { return s.docs[k].docID == slots[0].doc.ID })
		if at < 0 {
			page = append(page, slots[0])
		} else {
			page[at] = slots[0]
		}
		slots = page
	}
	keys := make([]serve.Key, len(slots))
	for i := range slots {
		keys[i] = slots[i].key
	}
	up := PageUpsert{Reused: make([]bool, len(slots))}
	s.c.upsertedPages++
	if slices.Equal(old, keys) {
		for i := range up.Reused {
			up.Reused[i] = true
		}
		return up
	}
	startErrs := s.c.persistErrors

	var stale []string
	for _, k := range old {
		if !slices.Contains(keys, k) {
			stale = append(stale, k.String())
			s.retractDoc(k)
		}
	}
	up.Retracted = len(stale)

	// Register fresh documents. Supersedes rides on the first record so
	// retraction and addition share one atomic log line; if no document is
	// fresh but the page still changed — a pure retraction or a pure
	// reorder — a bare "retract" record carries the retraction and the new
	// order. The page key rides on the last record.
	pageDocs := make([]string, len(keys))
	for i, k := range keys {
		pageDocs[i] = k.String()
	}
	var recs []record
	for i, sl := range slots {
		if _, live := s.docs[sl.key]; live {
			up.Reused[i] = true
			continue
		}
		if sl.st == nil {
			sl.st = docStateOf(sl.doc, sl.als)
		}
		s.registerDoc(sl.key, sl.st)
		recs = append(recs, record{
			Kind:       "doc",
			Key:        pageDocs[i],
			DocID:      sl.st.docID,
			PageID:     w.PageID,
			Alignments: ToWire(sl.st.als),
			Entries:    sl.st.entries,
			Facts:      sl.st.facts,
			PageDocs:   pageDocs,
		})
	}
	if len(recs) == 0 {
		recs = append(recs, record{Kind: "retract", PageID: w.PageID, PageDocs: pageDocs})
	}
	recs[0].Supersedes = stale
	if w.PageKey != (serve.Key{}) {
		recs[len(recs)-1].PageKey = w.PageKey.String()
	}
	for _, r := range recs {
		s.append(r)
	}

	s.installPage(w.PageID, keys)
	up.PersistErrors = s.c.persistErrors - startErrs
	return up
}

// append writes one record under the held lock. Failures are counted and
// logged, never propagated: serving beats durability here. The first
// failure additionally goes through the standard logger so it is visible
// even when Options.Logf discards.
func (s *Store) append(r record) {
	if s.logF == nil {
		return
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = s.logF.Write(append(b, '\n'))
	}
	if err != nil {
		s.c.persistErrors++
		s.logf("store: persist failed (state kept in memory): %v", err)
		s.firstPersistErr.Do(func() {
			log.Printf("store: first persist failure, corpus log %s is no longer complete: %v",
				filepath.Join(s.dir, logName), err)
		})
	}
}

// Search runs a quantity query against the incremental index and returns the
// full deterministically-ranked result list (pagination is the caller's).
func (s *Store) Search(q quantsearch.Query) []quantsearch.Result {
	s.c.searches.Add(1)
	// Restore the value-posting order left dirty by recent adds under the
	// write lock (a no-op flag check when clean), then query under the read
	// lock. Index.Search never mutates — if an add lands between the two
	// locks it falls back to a scan, staying correct and race-free.
	s.mu.Lock()
	s.index.EnsureValueOrder()
	s.mu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.Search(q)
}

// FactsFor returns the facts known for a canonical entity name, confidence
// descending.
func (s *Store) FactsFor(entity string) []facts.Fact {
	s.c.factsQueries.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view.Entity(entity)
}

// Entities returns the sorted entity names with at least one fact.
func (s *Store) Entities() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view.Entities()
}

// counterNames is the stable store-counter schema; the /metrics golden test
// keys on it. Keep CounterNames and Counters in sync.
var counterNames = []string{
	"documents", "warm_documents", "replay_skipped",
	"persist_errors", "searches", "facts_queries",
	"upserted_pages", "retracted_documents", "live_documents",
	"index_entries", "fact_entities", "facts", "log_bytes", "persistent",
}

// CounterNames returns the full, stable schema of the Counters map.
func CounterNames() []string { return append([]string{}, counterNames...) }

// Counters returns store counters and gauges under the stable schema of
// CounterNames. A nil *Store reports the same schema, all zero — the
// /metrics shape must not depend on whether a store is attached.
func (s *Store) Counters() map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, name := range counterNames {
		out[name] = 0
	}
	if s == nil {
		return out
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out["documents"] = s.c.documents
	out["warm_documents"] = s.c.warmDocuments
	out["replay_skipped"] = s.c.replaySkipped
	out["persist_errors"] = s.c.persistErrors
	out["searches"] = s.c.searches.Load()
	out["facts_queries"] = s.c.factsQueries.Load()
	out["upserted_pages"] = s.c.upsertedPages
	out["retracted_documents"] = s.c.retractedDocs
	out["live_documents"] = int64(len(s.docs))
	out["index_entries"] = int64(s.index.Size())
	out["fact_entities"] = int64(len(s.view.Entities()))
	out["facts"] = int64(s.view.Size())
	if s.logF != nil {
		out["persistent"] = 1
		if fi, err := s.logF.Stat(); err == nil {
			out["log_bytes"] = fi.Size()
		}
	}
	return out
}
