package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"briq/internal/corpus"
	"briq/internal/quantsearch"
)

// Everything the benchmark sends is a pure function of the seed: page HTML,
// batch blocks, crawl edits, read queries and every arrival schedule. The
// server only ever sees the generated HTTP requests.

// page is one generated HTML page.
type page struct {
	ID       string
	HTML     string
	Docs     int // documents the generator's segmenter found on the page
	Cost     int // text×table mention pairs over those documents
	Mentions int // text and table mentions over those documents
}

// query is one read request with the structured form the in-process oracle
// answers it from.
type query struct {
	Path   string             // request path and query string
	Search *quantsearch.Query // set for /v1/search
	Entity string             // set for /v1/facts
}

// inputs are the generated inputs of one run.
type inputs struct {
	Warm        []page              // /v1/align pages sent before the ladder, unmeasured
	Cold        []page              // /v1/align pages, each sent once, slice after slice, rung after rung
	LadderDue   [][][]time.Duration // per slice and ladder rung, the Poisson due offsets
	Hot         [][]page            // /v1/align/batch working set, blocks of batchPages
	BlockSeq    [batchClients][]int
	Crawl       [][]page          // /v1/ingest crawl versions; Crawl[0] is the cold crawl
	CrawlGroups [][]int           // page indices of the crawl, ingested group after group
	Queries     []query           // /v1/search and /v1/facts reads over the crawl
	ReadDue     [][]time.Duration // per crawl group, Poisson due offsets of the reads from the group's start
	ReadPick    [][]int           // per crawl group, query index per read
}

// subSeed derives an independent stream seed for one part of the inputs.
func subSeed(seed int64, part int64) int64 { return seed*1_000_003 + part }

// pageCost is the number of (text mention, table mention) pairs over a
// page's documents: what classification, the bulk of a cold align, scales
// with.
func pageCost(u *corpus.PageUnit) int {
	c := 0
	for _, d := range u.Docs {
		c += len(d.TextMentions) * len(d.TableMentions)
	}
	return c
}

// strata split generator pages by pageCost into bands of known population
// share: deciles, with the heavy top decile cut in three. The bounds are
// quantiles of pageCost over 4000 generator pages (corpus seeds 100-103).
// Page cost is heavy-tailed, so a plain random sample of a few hundred pages
// would make a run's latency figures depend on how many heavy pages its seed
// drew; filling every band to its share keeps the mix of every seed the same.
var strata = []struct {
	upTo  int
	share float64
}{
	{2590, .1}, {4059, .1}, {5408, .1}, {6906, .1}, {8560, .1}, {10686, .1},
	{13360, .1}, {16946, .1}, {23632, .1}, {30040, .05}, {40100, .03},
	{math.MaxInt, .02},
}

// quotas splits n over the strata by their shares, largest remainder first.
func quotas(n int) []int {
	q := make([]int, len(strata))
	rem := make([]int, len(strata))
	left := n
	for i, s := range strata {
		exact := s.share * float64(n)
		q[i] = int(exact)
		left -= q[i]
		rem[i] = i
	}
	frac := func(i int) float64 { return strata[i].share*float64(n) - float64(q[i]) }
	sort.SliceStable(rem, func(a, b int) bool { return frac(rem[a]) > frac(rem[b]) })
	for i := 0; i < left; i++ {
		q[rem[i%len(rem)]]++
	}
	return q
}

// genPages draws n alignable pages from the corpus generator, each cost
// stratum filled to its share, and returns them sorted by ascending cost.
// Pages on which the generator's segmenter finds no document would be
// refused with 422, so they are skipped: every generated request is one that
// should succeed. If the generator stops producing some stratum, the
// remaining places are filled with the first spare pages. visit, when
// non-nil, sees each kept page's corpus unit.
func genPages(seed int64, n int, visit func(*corpus.PageUnit)) []page {
	s := corpus.NewStream(corpus.TableLConfig(seed, 0))
	need := quotas(n)
	var out []page
	var spare []*corpus.PageUnit
	for seen := 0; len(out) < n && seen < 3*n; seen++ {
		u := s.Next()
		if len(u.Docs) == 0 {
			continue
		}
		c := pageCost(u)
		k := sort.Search(len(strata), func(i int) bool { return c <= strata[i].upTo })
		if need[k] == 0 {
			spare = append(spare, u)
			continue
		}
		need[k]--
		out = append(out, keep(u, visit))
	}
	for _, u := range spare {
		if len(out) == n {
			break
		}
		out = append(out, keep(u, visit))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

func keep(u *corpus.PageUnit, visit func(*corpus.PageUnit)) page {
	if visit != nil {
		visit(u)
	}
	p := page{HTML: u.Page.HTML(), Docs: len(u.Docs), Cost: pageCost(u)}
	for _, d := range u.Docs {
		p.Mentions += len(d.TextMentions) + len(d.TableMentions)
	}
	return p
}

// spread deals cost-sorted pages into groups of the given sizes so that
// every group holds the same cost mix as the whole: page i goes to the group
// furthest behind its proportional share at rank i.
func spread(sorted []page, sizes []int) [][]page {
	out := make([][]page, len(sizes))
	for i, pg := range sorted {
		best, bestGap := -1, math.Inf(-1)
		for g, size := range sizes {
			if len(out[g]) >= size {
				continue
			}
			gap := float64(size)*float64(i+1)/float64(len(sorted)) - float64(len(out[g]))
			if gap > bestGap {
				best, bestGap = g, gap
			}
		}
		if best < 0 {
			break
		}
		out[best] = append(out[best], pg)
	}
	return out
}

// balance packs pages into groups of size pages each with a near-equal sum
// of cost: heaviest page first, each into the lightest group with room.
func balance(pages []page, groups, size int, cost func(page) int) [][]page {
	order := append([]page(nil), pages...)
	sort.SliceStable(order, func(i, j int) bool { return cost(order[i]) > cost(order[j]) })
	out := make([][]page, groups)
	sums := make([]int, groups)
	for _, pg := range order {
		best := -1
		for g := range out {
			if len(out[g]) < size && (best < 0 || sums[g] < sums[best]) {
				best = g
			}
		}
		if best < 0 {
			break
		}
		out[best] = append(out[best], pg)
		sums[best] += cost(pg)
	}
	return out
}

// shuffled returns pages in a seed-determined order, named prefix0000,
// prefix0001, … in that order.
func shuffled(rng *rand.Rand, pages []page, prefix string, first int) []page {
	out := append([]page(nil), pages...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].ID = fmt.Sprintf("%s%04d", prefix, first+i)
	}
	return out
}

// genInputs builds every input a plan needs. The three corpora come from
// independent streams, so they are generated concurrently.
func genInputs(seed int64, pl plan) inputs {
	var in inputs
	rng := rand.New(rand.NewSource(subSeed(seed, 0)))
	var sizes []int
	total := 0
	for sl := 0; sl < slices; sl++ {
		var rungs [][]time.Duration
		for _, r := range pl.Ladder {
			due := poisson(rng, r.Rate, r.Seconds)
			rungs = append(rungs, due)
			sizes = append(sizes, len(due))
			total += len(due)
		}
		in.LadderDue = append(in.LadderDue, rungs)
	}

	sizes = append(sizes, alignWarmup)
	total += alignWarmup
	var cold, hot, crawl []page
	var entries []quantsearch.Entry
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); cold = genPages(subSeed(seed, 1), total, nil) }()
	go func() { defer wg.Done(); hot = genPages(subSeed(seed, 2), pl.Batch.Blocks*batchPages, nil) }()
	go func() {
		defer wg.Done()
		crawl = genPages(subSeed(seed, 3), pl.Recrawl.Pages, func(u *corpus.PageUnit) {
			for _, d := range u.Docs {
				entries = append(entries, quantsearch.EntriesFromDocument(d)...)
			}
		})
	}()
	wg.Wait()

	groups := spread(cold, sizes)
	for _, group := range groups[:len(groups)-1] {
		in.Cold = append(in.Cold, shuffled(rng, group, "a", len(in.Cold))...)
	}
	in.Warm = shuffled(rng, groups[len(groups)-1], "w", 0)
	// A cache hit re-parses and re-segments the pages and hashes every
	// mention, so blocks are balanced on mentions: under Zipf a few blocks
	// carry most requests, and their cost must not depend on the seed.
	hitCost := func(p page) int { return p.Mentions }
	for _, blk := range balance(hot, pl.Batch.Blocks, batchPages, hitCost) {
		in.Hot = append(in.Hot, shuffled(rng, blk, "h", len(in.Hot)*batchPages))
	}
	for c := range in.BlockSeq {
		in.BlockSeq[c] = zipfSeq(subSeed(seed, int64(10+c)), pl.Batch.Blocks, maxBatchRequests)
	}
	in.Crawl = crawlVersions(subSeed(seed, 4), crawl, pl.Recrawl.Rounds, pl.Recrawl.EditShare)
	in.CrawlGroups = crawlGroups(in.Crawl[0], crawlGroupCount)
	in.Queries = genQueries(subSeed(seed, 5), entries, pl.Recrawl.Queries)
	for range in.CrawlGroups {
		due := poisson(rng, pl.Recrawl.ReadRate, pl.Recrawl.ReadSeconds/crawlGroupCount)
		pick := make([]int, len(due))
		for i := range pick {
			pick[i] = rng.Intn(len(in.Queries))
		}
		in.ReadDue, in.ReadPick = append(in.ReadDue, due), append(in.ReadPick, pick)
	}
	return in
}

// crawlVersions returns the cold crawl, in a seed-determined order, followed
// by rounds re-crawls. Each re-crawl edits one paragraph on a fixed share of
// the pages — every 1/share-th page by cost, from a per-round random offset,
// so the edited pages carry the crawl's cost mix — and leaves the rest
// byte-identical to the previous version. sorted must be cost-sorted.
func crawlVersions(seed int64, sorted []page, rounds int, share float64) [][]page {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(sorted)) // perm[rank] = position in the crawl
	crawl := make([]page, len(sorted))
	for rank, pos := range perm {
		crawl[pos] = sorted[rank]
		crawl[pos].ID = fmt.Sprintf("c%04d", pos)
	}
	versions := [][]page{crawl}
	period := int(1/share + 0.5)
	for r := 1; r <= rounds; r++ {
		next := append([]page(nil), versions[r-1]...)
		off := rng.Intn(period)
		for rank := off; rank < len(sorted); rank += period {
			next[perm[rank]].HTML = editParagraph(next[perm[rank]].HTML, r)
		}
		versions = append(versions, next)
	}
	return versions
}

// crawlGroupCount is how many page groups a crawl is ingested in.
const crawlGroupCount = 6

// crawlGroups splits a crawl's page indices into n groups with the crawl's
// cost mix — dealt round-robin in cost order — each in crawl order.
func crawlGroups(crawl []page, n int) [][]int {
	byCost := make([]int, len(crawl))
	for i := range byCost {
		byCost[i] = i
	}
	sort.SliceStable(byCost, func(a, b int) bool { return crawl[byCost[a]].Cost < crawl[byCost[b]].Cost })
	out := make([][]int, n)
	for rank, i := range byCost {
		out[rank%n] = append(out[rank%n], i)
	}
	for _, g := range out {
		sort.Ints(g)
	}
	return out
}

// editParagraph appends one sentence to the first paragraph of a page: the
// smallest edit a re-crawl sees, which changes exactly one document.
func editParagraph(html string, round int) string {
	i := strings.Index(html, "</p>")
	if i < 0 {
		return html
	}
	return html[:i] + fmt.Sprintf(" A revised figure was confirmed in re-crawl %d.", round) + html[i:]
}

// genQueries draws n reads from the crawl's table entries, alternating
// between a value-range search keyed by a column-header word and a facts
// lookup of a row-header entity.
func genQueries(seed int64, entries []quantsearch.Entry, n int) []query {
	rng := rand.New(rand.NewSource(seed))
	var out []query
	for len(out) < n && len(entries) > 0 {
		e := entries[rng.Intn(len(entries))]
		if len(out)%2 == 1 {
			if strings.TrimSpace(e.Entity) == "" {
				continue
			}
			out = append(out, query{Path: "/v1/facts?entity=" + url.QueryEscape(e.Entity), Entity: e.Entity})
			continue
		}
		lo, hi := e.Value*0.9, e.Value*1.1
		if lo > hi {
			lo, hi = hi, lo
		}
		q := quantsearch.Query{Op: quantsearch.Between, Value: lo, Value2: hi}
		v := url.Values{}
		v.Set("op", "between")
		v.Set("value", strconv.FormatFloat(lo, 'g', -1, 64))
		v.Set("value2", strconv.FormatFloat(hi, 'g', -1, 64))
		if kw := firstWord(e.Header); kw != "" {
			q.Keywords = []string{kw}
			v.Set("keywords", kw)
		}
		out = append(out, query{Path: "/v1/search?" + v.Encode(), Search: &q})
	}
	return out
}

// firstWord returns the first all-letter word of s, lowercased.
func firstWord(s string) string {
	for _, w := range strings.Fields(strings.ToLower(s)) {
		if strings.IndexFunc(w, func(r rune) bool { return !unicode.IsLetter(r) }) < 0 {
			return w
		}
	}
	return ""
}

// poisson returns the due offsets of an open-loop Poisson arrival process at
// rate per second over the given duration.
func poisson(rng *rand.Rand, rate, seconds float64) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= seconds {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// zipfSeq returns length block indices in [0, blocks) drawn Zipf-distributed:
// a few blocks are requested far more often than the rest.
func zipfSeq(seed int64, blocks, length int) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(blocks-1))
	out := make([]int, length)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
