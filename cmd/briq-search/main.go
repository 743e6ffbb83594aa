// Command briq-search answers quantity queries over an aligned corpus (§XI),
// from any of three sources:
//
//	briq-search -addr http://127.0.0.1:8080 "income above 5 million USD"
//	briq-search -store data/corpus "income above 5 million USD"
//	briq-search -dir corpus/ "income above 5 million USD"
//
// -addr queries a live briq-server (or briq-gateway) through GET /v1/search,
// following result cursors. -store opens a briq-server -store directory
// offline and queries the replayed quantity index directly. -dir segments a
// directory of .html pages and indexes them in memory, through the same
// store code path the server uses — so all three modes rank and render
// results identically for the same corpus.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"briq/client"
	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/quantsearch"
	"briq/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("briq-search: ")

	addr := flag.String("addr", "", "briq-server base URL to query via GET /v1/search")
	storeDir := flag.String("store", "", "briq-server -store directory to query offline")
	dir := flag.String("dir", "", "directory of .html pages to index in memory")
	limit := flag.Int("limit", 10, "maximum results to print")
	flag.Parse()

	modes := 0
	for _, m := range []string{*addr, *storeDir, *dir} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 || flag.NArg() == 0 {
		log.Fatal(`usage: briq-search (-addr URL | -store DIR | -dir DIR) "income above 5 million USD"`)
	}

	queryText := strings.Join(flag.Args(), " ")
	q, err := quantsearch.ParseQuery(queryText)
	if err != nil {
		log.Fatalf("parse query: %v", err)
	}

	var results []quantsearch.Result
	switch {
	case *addr != "":
		results, err = searchServer(*addr, queryText, *limit)
		if err != nil {
			log.Fatal(err)
		}
	case *storeDir != "":
		st, err := store.Open(store.Options{Dir: *storeDir, Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		c := st.Counters()
		fmt.Printf("indexed %d table quantities from %d documents\n", c["index_entries"], c["documents"])
		results = st.Search(q)
	case *dir != "":
		st, pages, err := indexDir(*dir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("indexed %d table quantities from %d pages\n", st.Counters()["index_entries"], pages)
		results = st.Search(q)
	}

	fmt.Printf("query: op=%s value=%g unit=%q keywords=%v\n", q.Op, q.Value, q.Unit, q.Keywords)
	if len(results) == 0 {
		fmt.Println("no results")
		return
	}
	if len(results) > *limit {
		results = results[:*limit]
	}
	for _, r := range results {
		fmt.Printf("  %-24s %-20s = %-14g [%s r%d c%d]\n",
			r.Entity, r.Header, r.Value, r.TableID, r.Row, r.Col)
	}
}

// indexDir segments every .html page under dir and writes each page through
// a memory-only store — the same page upsert the server's persistent store
// uses, minus the alignments (this mode indexes without a trained model,
// exactly like the old in-process indexer).
func indexDir(dir string) (*store.Store, int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.html"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("no .html pages in %s", dir)
	}

	st, err := store.Open(store.Options{Logf: log.Printf})
	if err != nil {
		return nil, 0, err
	}
	seg := document.NewSegmenter()
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		pageID := strings.TrimSuffix(filepath.Base(path), ".html")
		docs, err := seg.SegmentPage(pageID, htmlx.ParseString(string(src)))
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %v", path, err)
		}
		st.UpsertPage(pageID, docs, make([][]core.Alignment, len(docs)))
	}
	return st, len(paths), nil
}

// searchServer sends the natural-language query to a live server — the
// server parses it with the same quantsearch parser — and follows cursors
// until limit results are in hand.
func searchServer(addr, queryText string, limit int) ([]quantsearch.Result, error) {
	c, err := client.New(addr)
	if err != nil {
		return nil, err
	}
	var results []quantsearch.Result
	it := c.SearchAll(context.Background(), client.SearchQuery{Q: queryText})
	for len(results) < limit && it.Next() {
		r := it.Item()
		results = append(results, quantsearch.Result{
			Entry: quantsearch.Entry{
				DocID: r.DocID, TableID: r.TableID, Row: r.Row, Col: r.Col,
				Entity: r.Entity, Header: r.Header, Value: r.Value,
				Unit: r.Unit, Caption: r.Caption,
			},
			Matched: r.Matched,
		})
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
