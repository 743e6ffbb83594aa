package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"

	"briq"
	"briq/internal/api"
	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/htmlx"
	"briq/internal/ingest"
	"briq/internal/store"
)

// The correctness oracle answers the same requests in process, on the same
// model bundle, and renders each answer through the server's own envelope
// encoder, so a correct server response equals it byte for byte.

type oracle struct {
	p   *briq.Pipeline
	seg *document.Segmenter
}

func newOracle(model string) (*oracle, error) {
	p, err := briq.NewFromModelFile(model)
	if err != nil {
		return nil, err
	}
	seg := p.Segmenter
	if seg == nil {
		seg = document.NewSegmenter()
	}
	return &oracle{p: p, seg: seg}, nil
}

// envelope renders v the way the server answers a successful request.
func envelope(v any) []byte {
	rec := httptest.NewRecorder()
	api.WriteResult(rec, v)
	return rec.Body.Bytes()
}

// alignBody is the expected /v1/align answer for a page.
func (o *oracle) alignBody(ctx context.Context, html string) ([]byte, error) {
	als, err := briq.AlignHTMLContext(ctx, o.p, "request", html)
	if err != nil {
		return nil, err
	}
	return envelope(map[string]any{"alignments": als}), nil
}

// batchPageResult mirrors one page of the /v1/align/batch answer.
type batchPageResult struct {
	ID         string           `json:"id"`
	Documents  int              `json:"documents"`
	Alignments []briq.Alignment `json:"alignments"`
}

// batchBody is the expected /v1/align/batch answer for a block: each page
// aligned on its own, its alignments in the corpus order (document ID, then
// text mention) the batch endpoint returns.
func (o *oracle) batchBody(ctx context.Context, block []page) ([]byte, error) {
	results := make([]batchPageResult, len(block))
	docs, total := 0, 0
	for i, pg := range block {
		ds, err := o.seg.SegmentPage(pg.ID, htmlx.ParseString(pg.HTML))
		if err != nil {
			return nil, err
		}
		als, err := briq.AlignHTMLContext(ctx, o.p, pg.ID, pg.HTML)
		if err != nil {
			return nil, err
		}
		core.SortAlignments(als)
		if als == nil {
			als = []briq.Alignment{}
		}
		results[i] = batchPageResult{ID: pg.ID, Documents: len(ds), Alignments: als}
		docs += len(ds)
		total += len(als)
	}
	return envelope(map[string]any{"pages": results, "documents": docs, "alignments": total}), nil
}

// ingestStore ingests a crawl from scratch into a memory-only store.
func (o *oracle) ingestStore(ctx context.Context, crawl []page) (*store.Store, error) {
	st, err := store.Open(store.Options{Fingerprint: o.p.Fingerprint()})
	if err != nil {
		return nil, err
	}
	ing := ingest.New(o.p, st, ingest.Options{})
	for _, pg := range crawl {
		if res := ing.Page(ctx, pg.ID, pg.HTML); res.Error != "" {
			return nil, fmt.Errorf("oracle ingest %s: %s", pg.ID, res.Error)
		}
	}
	return st, nil
}

// readBody is the expected first page of a /v1/search or /v1/facts answer.
func readBody(st *store.Store, q query) []byte {
	if q.Search != nil {
		items, next := api.Page(st.Search(*q.Search), 0, 0)
		return envelope(api.Paginated{Items: items, NextCursor: next})
	}
	items, next := api.Page(st.FactsFor(facts.CanonicalEntity(q.Entity)), 0, 0)
	return envelope(api.Paginated{Items: items, NextCursor: next})
}

// mismatches counts positions where got and want differ; a nil got (the
// request failed) is a mismatch too.
func mismatches(got, want [][]byte) int {
	n := 0
	for i := range want {
		if got[i] == nil || !bytes.Equal(got[i], want[i]) {
			n++
		}
	}
	return n
}
