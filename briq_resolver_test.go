package briq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"briq"
	"briq/internal/corpus"
)

// TestWithResolverSelectsStrategy pins the option surface: each known name
// lands the matching strategy on the pipeline, and "rwr" is indistinguishable
// from omitting the option.
func TestWithResolverSelectsStrategy(t *testing.T) {
	for _, name := range briq.ResolverNames() {
		p := briq.New(briq.WithResolver(name))
		if got := p.ResolverName(); got != name {
			t.Errorf("WithResolver(%q): ResolverName = %q", name, got)
		}
		if len(p.ConfigWarnings) != 0 {
			t.Errorf("WithResolver(%q): unexpected warnings %v", name, p.ConfigWarnings)
		}
		if !briq.KnownResolver(name) {
			t.Errorf("KnownResolver(%q) = false for a listed name", name)
		}
	}
	if briq.New().Fingerprint() != briq.New(briq.WithResolver("rwr")).Fingerprint() {
		t.Error("explicit rwr selection changed the fingerprint vs the default")
	}
	// So is its output: an explicitly rwr-selected pipeline aligns
	// byte-identically to the default one.
	want, err := briq.AlignHTMLContext(context.Background(), briq.New(), "p0", quickstartPage)
	if err != nil {
		t.Fatal(err)
	}
	got, err := briq.AlignHTMLContext(context.Background(), briq.New(briq.WithResolver("rwr")), "p0", quickstartPage)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("explicit rwr selection diverged from the default pipeline's alignments")
	}
	if briq.KnownResolver("annealing") {
		t.Error("KnownResolver accepted an unknown name")
	}
}

// TestWithResolverClampsIntoWarnings: invalid names and out-of-range strategy
// parameters fall back to safe defaults and are recorded in ConfigWarnings
// instead of misbehaving silently.
func TestWithResolverClampsIntoWarnings(t *testing.T) {
	p := briq.New(briq.WithResolver("annealing"))
	if got := p.ResolverName(); got != "rwr" {
		t.Errorf("unknown strategy resolved to %q, want rwr fallback", got)
	}
	if len(p.ConfigWarnings) != 1 || !strings.Contains(p.ConfigWarnings[0], "annealing") {
		t.Errorf("unknown strategy warnings = %v", p.ConfigWarnings)
	}

	p = briq.New(briq.WithResolver("ilp", briq.WithILPBudget(-time.Second)))
	if got := p.ResolverName(); got != "ilp" {
		t.Errorf("negative budget changed the strategy to %q", got)
	}
	if len(p.ConfigWarnings) != 1 || !strings.Contains(p.ConfigWarnings[0], "WithILPBudget") {
		t.Errorf("negative budget warnings = %v", p.ConfigWarnings)
	}
	// The clamped pipeline must equal the default-budget one, not a third state.
	if p.Fingerprint() != briq.New(briq.WithResolver("ilp")).Fingerprint() {
		t.Error("clamped ilp budget fingerprints differently from the default budget")
	}

	p = briq.New(briq.WithResolver("greedy", briq.WithGreedyMinScore(1.5)))
	if got := p.ResolverName(); got != "greedy" {
		t.Errorf("out-of-range threshold changed the strategy to %q", got)
	}
	if len(p.ConfigWarnings) != 1 || !strings.Contains(p.ConfigWarnings[0], "WithGreedyMinScore") {
		t.Errorf("out-of-range threshold warnings = %v", p.ConfigWarnings)
	}
	if p.Fingerprint() != briq.New(briq.WithResolver("greedy")).Fingerprint() {
		t.Error("clamped greedy threshold fingerprints differently from the default")
	}
}

// TestResolverCacheIsolation is the cache-poisoning regression test: serve
// cache keys are derived from the pipeline fingerprint, so pipelines that
// differ only in resolution strategy (or strategy parameters) must produce
// distinct content-addressed keys for identical input — one strategy's cached
// result can never be served as another's.
func TestResolverCacheIsolation(t *testing.T) {
	pipelines := map[string]*briq.Pipeline{
		"rwr":        briq.New(briq.WithCache(1<<20), briq.WithResolver("rwr")),
		"ilp":        briq.New(briq.WithCache(1<<20), briq.WithResolver("ilp")),
		"ilp-1s":     briq.New(briq.WithCache(1<<20), briq.WithResolver("ilp", briq.WithILPBudget(time.Second))),
		"greedy":     briq.New(briq.WithCache(1<<20), briq.WithResolver("greedy")),
		"greedy-0.9": briq.New(briq.WithCache(1<<20), briq.WithResolver("greedy", briq.WithGreedyMinScore(0.9))),
	}
	keys := map[string]string{}
	for name, p := range pipelines {
		key := p.Gate.PageKey("p0", quickstartPage)
		if prev, dup := keys[string(key[:])]; dup {
			t.Errorf("strategies %q and %q share a cache key for identical input", name, prev)
		}
		keys[string(key[:])] = name
	}

	// End to end: a warm cache serves each strategy its own result. The rwr
	// and greedy outputs differ on the quickstart page only in scores, so
	// compare each cached replay against its own strategy's fresh run.
	ctx := context.Background()
	for name, p := range pipelines {
		first, err := briq.AlignHTMLContext(ctx, p, "p0", quickstartPage)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cached, err := briq.AlignHTMLContext(ctx, p, "p0", quickstartPage)
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}
		fresh, err := briq.AlignHTMLContext(ctx, briq.New(briq.WithResolver(p.ResolverName())), "p0", quickstartPage)
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		a, _ := json.Marshal(first)
		b, _ := json.Marshal(cached)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: cached replay diverged from first run", name)
		}
		if name == "rwr" || name == "ilp-1s" || name == "greedy" {
			// For these the fresh uncached pipeline is configured identically.
			c, _ := json.Marshal(fresh)
			if !bytes.Equal(a, c) {
				t.Errorf("%s: cached pipeline output diverged from uncached pipeline", name)
			}
		}
	}
}

// TestResolverStageMetrics: the resolution stage reports under its
// per-strategy name, and the schema still pre-registers every strategy's
// stage, so the histogram set is identical whichever resolver runs.
func TestResolverStageMetrics(t *testing.T) {
	rec := briq.NewRecorder()
	p := briq.New(briq.WithResolver("greedy"), briq.WithRecorder(rec))
	if _, err := briq.AlignHTMLContext(context.Background(), p, "p0", quickstartPage); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	for _, stage := range []string{"resolve/rwr", "resolve/ilp", "resolve/greedy"} {
		if _, ok := snap[stage]; !ok {
			t.Errorf("stage %s missing from the pre-registered schema", stage)
		}
	}
	if snap["resolve/greedy"].Count != 1 {
		t.Errorf("resolve/greedy count = %d, want 1", snap["resolve/greedy"].Count)
	}
	if snap["resolve/rwr"].Count != 0 {
		t.Errorf("resolve/rwr count = %d, want 0 (greedy pipeline must not report as rwr)", snap["resolve/rwr"].Count)
	}
}

// TestAlignCorpusDeterministicWithResolver: the concurrent corpus path stays
// deterministic and byte-identical to a serial run under a non-default
// strategy — per-worker clones get private resolver scratch, shared nothing.
// (greedy, not ilp: the ilp strategy's budget fallback is timing-dependent by
// design, so only deadline-free strategies promise bytewise determinism.)
func TestAlignCorpusDeterministicWithResolver(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(21, 6))
	p := briq.New(briq.WithResolver("greedy"), briq.WithWorkers(4))

	serial := p.AlignAll(c.Docs, 1)
	want, _ := json.Marshal(serial)
	for run := 0; run < 2; run++ {
		got, err := briq.AlignCorpus(context.Background(), p, c.Docs)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, want) {
			t.Fatalf("run %d: concurrent greedy corpus alignment diverged from serial", run)
		}
	}
}
