package main

import (
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"briq"
	"briq/internal/facts"
	"briq/internal/quantsearch"
	"briq/internal/store"
)

// searchResult decodes the /search envelope for assertions.
type searchPage struct {
	Result struct {
		Items      []quantsearch.Result `json:"items"`
		NextCursor string               `json:"next_cursor"`
	} `json:"result"`
	Error *apiError `json:"error"`
}

// TestSearchAfterAlign drives the full write path: aligning a page feeds the
// store, and /v1/search immediately finds its table cells — no batch rebuild
// in between.
func TestSearchAfterAlign(t *testing.T) {
	srv := newTestServer()
	if rec := do(t, srv, http.MethodPost, "/align", testPage); rec.Code != 200 {
		t.Fatalf("align status = %d", rec.Code)
	}

	rec := do(t, srv, http.MethodGet, "/v1/search?q=side+effects+above+30", "")
	if rec.Code != 200 {
		t.Fatalf("search status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchPage
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Items) == 0 {
		t.Fatalf("no results for aligned page: %s", rec.Body.String())
	}
	for _, it := range resp.Result.Items {
		if it.Value <= 30 {
			t.Errorf("result value %v violates above-30 query", it.Value)
		}
	}

	// The structured form of the same query returns the same items.
	q := url.Values{"op": {"above"}, "value": {"30"}, "keywords": {"side,effects"}}
	rec2 := do(t, srv, http.MethodGet, "/v1/search?"+q.Encode(), "")
	if rec2.Code != 200 {
		t.Fatalf("structured search status = %d: %s", rec2.Code, rec2.Body.String())
	}
	var resp2 searchPage
	if err := json.NewDecoder(rec2.Body).Decode(&resp2); err != nil {
		t.Fatal(err)
	}
	if len(resp2.Result.Items) != len(resp.Result.Items) {
		t.Errorf("structured form returns %d items, q form %d", len(resp2.Result.Items), len(resp.Result.Items))
	}
}

// TestFactsAfterAlign checks /v1/facts surfaces the aligned quantities for a
// row entity of the test page, highest confidence first.
func TestFactsAfterAlign(t *testing.T) {
	srv := newTestServer()
	if rec := do(t, srv, http.MethodPost, "/align", testPage); rec.Code != 200 {
		t.Fatalf("align status = %d", rec.Code)
	}
	entities := srv.store.Entities()
	if len(entities) == 0 {
		t.Fatal("no entities in facts view after align")
	}
	rec := do(t, srv, http.MethodGet, "/v1/facts?entity="+url.QueryEscape(entities[0]), "")
	if rec.Code != 200 {
		t.Fatalf("facts status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Result struct {
			Items      []facts.Fact `json:"items"`
			NextCursor string       `json:"next_cursor"`
		} `json:"result"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Items) == 0 {
		t.Fatalf("no facts for entity %q: %s", entities[0], rec.Body.String())
	}
	for i := 1; i < len(resp.Result.Items); i++ {
		if resp.Result.Items[i].Confidence > resp.Result.Items[i-1].Confidence {
			t.Errorf("facts not confidence-descending at %d", i)
		}
	}
}

// TestSearchFactsValidation drives every list-endpoint failure mode: wrong
// verbs answer 405, uninterpretable parameters answer 422 bad_query.
func TestSearchFactsValidation(t *testing.T) {
	srv := newTestServer()
	tests := []struct {
		name       string
		method     string
		path       string
		wantStatus int
		wantCode   string
	}{
		{"search wrong method", http.MethodPost, "/v1/search", 405, codeMethodNotAllowed},
		{"search no query", http.MethodGet, "/v1/search", 422, codeBadQuery},
		{"search q and structured", http.MethodGet, "/v1/search?q=above+5&value=5", 422, codeBadQuery},
		{"search q without value", http.MethodGet, "/v1/search?q=just+words", 422, codeBadQuery},
		{"search bad op", http.MethodGet, "/v1/search?op=around&value=5", 422, codeBadQuery},
		{"search bad value", http.MethodGet, "/v1/search?value=abc", 422, codeBadQuery},
		{"search op without value", http.MethodGet, "/v1/search?op=above", 422, codeBadQuery},
		{"search between without value2", http.MethodGet, "/v1/search?op=between&value=5", 422, codeBadQuery},
		{"search value2 without between", http.MethodGet, "/v1/search?op=above&value=5&value2=10", 422, codeBadQuery},
		{"search unknown unit", http.MethodGet, "/v1/search?value=5&unit=wombats", 422, codeBadQuery},
		{"search bad cursor", http.MethodGet, "/v1/search?value=5&cursor=xyz", 422, codeBadQuery},
		{"search negative cursor", http.MethodGet, "/v1/search?value=5&cursor=-3", 422, codeBadQuery},
		{"search bad limit", http.MethodGet, "/v1/search?value=5&limit=0", 422, codeBadQuery},
		{"facts wrong method", http.MethodPost, "/v1/facts", 405, codeMethodNotAllowed},
		{"facts missing entity", http.MethodGet, "/v1/facts", 422, codeBadQuery},
		{"facts bad cursor", http.MethodGet, "/v1/facts?entity=rash&cursor=nope", 422, codeBadQuery},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := do(t, srv, tt.method, tt.path, "")
			if rec.Code != tt.wantStatus {
				t.Fatalf("status = %d, want %d (body: %.200s)", rec.Code, tt.wantStatus, rec.Body.String())
			}
			var env envelope
			if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if env.Error == nil || env.Error.Code != tt.wantCode {
				t.Errorf("error = %+v, want code %q", env.Error, tt.wantCode)
			}
		})
	}
}

// TestSearchPagination follows cursors across pages and checks the
// concatenation equals one unpaginated result list.
func TestSearchPagination(t *testing.T) {
	srv := newTestServer()
	if rec := do(t, srv, http.MethodPost, "/align", testPage); rec.Code != 200 {
		t.Fatalf("align status = %d", rec.Code)
	}

	full := do(t, srv, http.MethodGet, "/v1/search?value=0&op=above&limit=100", "")
	var all searchPage
	if err := json.NewDecoder(full.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all.Result.Items) < 3 {
		t.Fatalf("need a few results to paginate, got %d", len(all.Result.Items))
	}

	var paged []quantsearch.Result
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > len(all.Result.Items) {
			t.Fatal("cursor chain did not terminate")
		}
		u := "/v1/search?value=0&op=above&limit=2"
		if cursor != "" {
			u += "&cursor=" + cursor
		}
		var p searchPage
		if err := json.NewDecoder(do(t, srv, http.MethodGet, u, "").Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		if len(p.Result.Items) > 2 {
			t.Fatalf("page has %d items, limit was 2", len(p.Result.Items))
		}
		paged = append(paged, p.Result.Items...)
		if cursor = p.Result.NextCursor; cursor == "" {
			break
		}
	}
	if len(paged) != len(all.Result.Items) {
		t.Fatalf("paginated walk yields %d items, full list %d", len(paged), len(all.Result.Items))
	}
	for i := range paged {
		if paged[i] != all.Result.Items[i] {
			t.Errorf("item %d differs between paged and full walks", i)
		}
	}
}

// TestListEnvelopeSchemaGolden locks the JSON schema of the /search and
// /facts paginated envelopes — field names and types, not values. Regenerate
// deliberately with:
//
//	go test ./cmd/briq-server -run TestListEnvelopeSchemaGolden -update
func TestListEnvelopeSchemaGolden(t *testing.T) {
	srv := newTestServer()
	if rec := do(t, srv, http.MethodPost, "/align", testPage); rec.Code != 200 {
		t.Fatalf("align status = %d", rec.Code)
	}
	entities := srv.store.Entities()
	if len(entities) == 0 {
		t.Fatal("no entities after align")
	}

	var lines []string
	renderSchema := func(label, body string) {
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		schemaLines(label, v, &lines)
	}

	ok := do(t, srv, http.MethodGet, "/v1/search?q=side+effects+above+30&limit=2", "")
	if ok.Code != 200 {
		t.Fatalf("search status = %d", ok.Code)
	}
	renderSchema("search_ok", ok.Body.String())

	bad := do(t, srv, http.MethodGet, "/v1/search?value=abc", "")
	if bad.Code != 422 {
		t.Fatalf("bad search status = %d", bad.Code)
	}
	renderSchema("search_error", bad.Body.String())

	fok := do(t, srv, http.MethodGet, "/v1/facts?entity="+url.QueryEscape(entities[0]), "")
	if fok.Code != 200 {
		t.Fatalf("facts status = %d", fok.Code)
	}
	renderSchema("facts_ok", fok.Body.String())

	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "list_envelope_schema.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("list envelope schema drifted from golden.\nIf intentional, regenerate with -update.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWarmRestart is the acceptance check for the persistent store: a second
// server booted over the same -store directory answers /v1/search
// byte-identically, and its very first re-POST of an already-aligned page is
// a cache hit — for the latest page and for one it superseded alike.
// testPageLater is testPage re-crawled with one more sentence: new document
// identities on the same page.
var testPageLater = strings.Replace(testPage, "69 female patients.",
	"69 female patients. Rash affected 35 of them.", 1)

func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	searchURL := "/v1/search?q=side+effects+above+30"
	boot := func() (*server, *store.Store) {
		p := briq.New(briq.WithCache(8 << 20))
		st, err := store.Open(store.Options{Dir: dir, Fingerprint: p.Fingerprint(), Gate: p.Gate})
		if err != nil {
			t.Fatal(err)
		}
		return newServer(p, serverOptions{workers: 1, store: st}), st
	}

	srv1, st1 := boot()
	first := do(t, srv1, http.MethodPost, "/align", testPage)
	if first.Code != 200 {
		t.Fatalf("align status = %d", first.Code)
	}
	// A later page supersedes testPage as page "request".
	latest := do(t, srv1, http.MethodPost, "/align", testPageLater)
	if latest.Code != 200 {
		t.Fatalf("align of the later page: status = %d", latest.Code)
	}
	want := do(t, srv1, http.MethodGet, searchURL, "").Body.String()
	if !strings.Contains(want, `"doc_id"`) {
		t.Fatalf("first server found nothing: %s", want)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := boot()
	defer st2.Close()

	// Search state is byte-identical before any request warms anything.
	if got := do(t, srv2, http.MethodGet, searchURL, "").Body.String(); got != want {
		t.Errorf("restarted search differs:\nfirst:\n%s\nsecond:\n%s", want, got)
	}
	c := st2.Counters()
	if c["warm_documents"] == 0 {
		t.Errorf("no documents replayed: %v", c)
	}

	// The very first re-POST of the page is served from the warm cache.
	rec := do(t, srv2, http.MethodPost, "/align", testPage)
	if rec.Code != 200 {
		t.Fatalf("re-align status = %d", rec.Code)
	}
	if hits := srv2.pipeline.Gate.Counters()["hits"]; hits == 0 {
		t.Error("first request after restart missed the warm cache")
	}
	// That page was superseded before the restart, yet its first request
	// after it is a hit with the pre-restart answer; so is the latest page's.
	if rec.Body.String() != first.Body.String() {
		t.Errorf("superseded page answer changed across restart:\nbefore: %s\nafter:  %s", first.Body, rec.Body)
	}
	hits := srv2.pipeline.Gate.Counters()["hits"]
	rec = do(t, srv2, http.MethodPost, "/align", testPageLater)
	if rec.Code != 200 {
		t.Fatalf("re-align of the later page: status = %d", rec.Code)
	}
	if srv2.pipeline.Gate.Counters()["hits"] != hits+1 {
		t.Error("first request of the latest page after restart missed the warm cache")
	}
	if rec.Body.String() != latest.Body.String() {
		t.Errorf("latest page answer changed across restart:\nbefore: %s\nafter:  %s", latest.Body, rec.Body)
	}

	// The duplicate alignment did not double-store the document.
	if c := st2.Counters(); c["documents"] != st1.Counters()["documents"] {
		t.Errorf("restart + re-align changed document count: %d vs %d",
			c["documents"], st1.Counters()["documents"])
	}
}
