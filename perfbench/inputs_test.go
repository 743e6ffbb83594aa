package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// digest hashes every generated input, schedules included.
func digest(t *testing.T, in inputs) string {
	t.Helper()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		pl, err := planFor(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		a, b := genInputs(7, pl), genInputs(7, pl)
		if digest(t, a) != digest(t, b) {
			t.Fatalf("%s: seed 7 generated different inputs on two calls", w)
		}
		if digest(t, a) == digest(t, genInputs(8, pl)) {
			t.Fatalf("%s: seeds 7 and 8 generated identical inputs", w)
		}
		for _, blk := range a.Hot {
			if got := string(batchBody(blk)); got != string(batchBody(blk)) {
				t.Fatalf("%s: batch request body is not deterministic", w)
			}
		}
	}
}

func TestInputsAreWellFormed(t *testing.T) {
	pl, err := planFor(recrawl, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := genInputs(3, pl)
	cold := 0
	if crawlGroupCount >= slices {
		t.Fatalf("%d crawl groups leave no slice of %d for the restarts", crawlGroupCount, slices)
	}
	if len(in.LadderDue) != slices {
		t.Fatalf("%d ladder slices, want %d", len(in.LadderDue), slices)
	}
	for _, rungs := range in.LadderDue {
		for _, due := range rungs {
			cold += len(due)
			for i := 1; i < len(due); i++ {
				if due[i] < due[i-1] {
					t.Fatal("ladder schedule is not sorted")
				}
			}
		}
	}
	if cold != len(in.Cold) {
		t.Fatalf("%d align pages for %d scheduled requests", len(in.Cold), cold)
	}
	seen := map[string]bool{}
	for _, pg := range in.Cold {
		if seen[pg.HTML] {
			t.Fatal("an align page repeats: the cache would hit")
		}
		seen[pg.HTML] = true
	}
	if len(in.Hot) != pl.Batch.Blocks {
		t.Fatalf("%d blocks, want %d", len(in.Hot), pl.Batch.Blocks)
	}
	for _, blk := range in.Hot {
		if len(blk) != batchPages {
			t.Fatalf("block of %d pages, want %d", len(blk), batchPages)
		}
	}
	if len(in.Crawl) != pl.Recrawl.Rounds+1 {
		t.Fatalf("%d crawl versions, want %d", len(in.Crawl), pl.Recrawl.Rounds+1)
	}
	for r := 1; r < len(in.Crawl); r++ {
		edited := 0
		for i := range in.Crawl[r] {
			if in.Crawl[r][i].ID != in.Crawl[0][i].ID {
				t.Fatal("a re-crawl renamed a page")
			}
			if in.Crawl[r][i].HTML != in.Crawl[r-1][i].HTML {
				edited++
			}
		}
		if want := len(in.Crawl[0]) / 4; edited < want-1 || edited > want+1 {
			t.Fatalf("re-crawl %d edited %d of %d pages, want about a quarter", r, edited, len(in.Crawl[0]))
		}
	}
	seenPage := map[int]bool{}
	for _, g := range in.CrawlGroups {
		for _, i := range g {
			if seenPage[i] {
				t.Fatalf("page %d in two crawl groups", i)
			}
			seenPage[i] = true
		}
	}
	if len(in.CrawlGroups) != crawlGroupCount || len(seenPage) != len(in.Crawl[0]) {
		t.Fatalf("%d crawl groups cover %d of %d pages", len(in.CrawlGroups), len(seenPage), len(in.Crawl[0]))
	}
	if len(in.ReadPick) != crawlGroupCount || len(in.ReadPick[0]) != len(in.ReadDue[0]) || len(in.Queries) != pl.Recrawl.Queries {
		t.Fatal("read schedule and picks disagree")
	}
}

func TestQuotasFillEveryShare(t *testing.T) {
	for n := 1; n < 500; n++ {
		q := quotas(n)
		total := 0
		for i, k := range q {
			total += k
			if exact := strata[i].share * float64(n); float64(k) < exact-1 || float64(k) > exact+1 {
				t.Fatalf("n=%d: stratum %d gets %d pages, share says %.2f", n, i, k, exact)
			}
		}
		if total != n {
			t.Fatalf("quotas(%d) sum to %d", n, total)
		}
	}
}

func TestBalanceAndSpread(t *testing.T) {
	var sorted []page
	for i := 0; i < 64; i++ {
		sorted = append(sorted, page{Cost: i * i})
	}
	blocks := balance(sorted, 8, 8, func(p page) int { return p.Cost })
	lo, hi := 1<<30, 0
	for _, b := range blocks {
		if len(b) != 8 {
			t.Fatalf("block of %d pages", len(b))
		}
		c := 0
		for _, p := range b {
			c += p.Cost
		}
		lo, hi = min(lo, c), max(hi, c)
	}
	if float64(hi-lo) > 0.05*float64(hi) {
		t.Fatalf("balanced block costs range %d..%d", lo, hi)
	}

	groups := spread(sorted, []int{16, 48})
	if len(groups[0]) != 16 || len(groups[1]) != 48 {
		t.Fatalf("spread sizes %d, %d", len(groups[0]), len(groups[1]))
	}
	// Every quarter of the cost range lands in the small group in
	// proportion.
	for q := 0; q < 4; q++ {
		n := 0
		for _, p := range groups[0] {
			if p.Cost >= (16*q)*(16*q) && p.Cost < (16*(q+1))*(16*(q+1)) {
				n++
			}
		}
		if n != 4 {
			t.Fatalf("quarter %d holds %d of the 16 pages, want 4", q, n)
		}
	}
}

func TestOnlyBenchmarkWorkloads(t *testing.T) {
	for _, w := range []string{"batch-hot", "", "align"} {
		if _, err := planFor(w, 48); err == nil {
			t.Fatalf("planFor accepted workload %q", w)
		}
	}
	for _, w := range workloads {
		pl, err := planFor(w, 48)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Batch.Seconds <= 0 || len(pl.Ladder) == 0 || pl.Recrawl.Pages == 0 {
			t.Fatalf("%s: a phase is missing from %+v", w, pl)
		}
	}
}

func TestDocumentsOfIgnoresLayout(t *testing.T) {
	for _, body := range []string{
		`{"result":{"pages":[{"id":"a","documents":2}],"documents":5,"alignments":3},"error":null}`,
		"{\n  \"error\": null,\n  \"result\": {\n    \"alignments\": 3,\n    \"documents\": 5,\n    \"pages\": []\n  }\n}\n",
	} {
		if n, ok := documentsOf([]byte(body)); !ok || n != 5 {
			t.Fatalf("documentsOf(%s) = %d, %v; want 5, true", body, n, ok)
		}
	}
	for _, body := range []string{``, `{"result":null,"error":{"code":"bad_request"}}`, `{"result":{"pages":[]}}`, `not json`} {
		if _, ok := documentsOf([]byte(body)); ok {
			t.Fatalf("documentsOf(%q) reported a count", body)
		}
	}
}
