// Package briq is a from-scratch Go implementation of BriQ — "Bridging
// Quantities in Tables and Text" (Ibrahim, Riedewald, Weikum,
// Zeinalipour-Yazti; ICDE 2019): a system that detects quantity mentions in
// text and aligns each to the table cell — or virtual cell such as a column
// sum, a difference, a percentage or a change ratio — that it refers to.
//
// The root package is a thin facade over the pipeline; the stages live in
// internal packages:
//
//	document   table-text extraction: paragraphs + related tables + mentions
//	feature    mention-pair features f1–f12
//	forest     the Random Forest mention-pair classifier
//	tagger     the text-mention aggregation tagger
//	filter     adaptive candidate filtering
//	graph      candidate graph + random walks with restart (Algorithm 1)
//	runtime    corpus-scale concurrent alignment (worker pool of clones)
//	serve      the traffic layer: result cache, single-flight, admission
//	corpus     the synthetic Common-Crawl-style corpus with ground truth
//	experiment the harness reproducing the paper's Tables I–IX
//
// Quick start:
//
//	p := briq.New()
//	alignments, err := briq.AlignHTMLContext(ctx, p, "page0", htmlSource)
//
// The pipeline is configured with functional options — trained models, a
// corpus fan-out width, a latency recorder, and the serving layer:
//
//	p := briq.New(briq.WithTrainedSeed(42), briq.WithWorkers(8),
//		briq.WithCache(64<<20), briq.WithMaxInFlight(32))
//	alignments, err := briq.AlignCorpus(ctx, p, docs)
//
// With WithCache, byte-identical requests are served from a sharded
// content-addressed result cache (hits are byte-identical to fresh runs) and
// concurrent identical requests coalesce into one pipeline run. With
// WithMaxInFlight, excess load is shed with ErrOverloaded/ErrDeadlineBudget
// instead of queuing unboundedly.
//
// Failures carry a typed taxonomy testable with errors.Is: ErrNoTables,
// ErrNoMentions, ErrUntrained, ErrOverloaded, ErrDeadlineBudget.
package briq

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/experiment"
	"briq/internal/htmlx"
	"briq/internal/obs"
	"briq/internal/quantsearch"
	"briq/internal/resolve"
	"briq/internal/runtime"
	"briq/internal/serve"
)

// Pipeline is a configured BriQ instance; see core.Pipeline for the stage
// configuration fields.
type Pipeline = core.Pipeline

// Alignment is one resolved text↔table quantity alignment.
type Alignment = core.Alignment

// Document is one unit of alignment: a paragraph with its related tables and
// the quantity mentions of both (produced by the segmenter, by the synthetic
// corpus generator, or by corpus loaders).
type Document = document.Document

// Recorder collects per-stage latency histograms; construct one with
// NewRecorder and attach it via WithRecorder, then read Recorder.Snapshot.
type Recorder = obs.Recorder

// NewRecorder returns a Recorder with every pipeline stage pre-registered,
// so snapshots expose the full schema before any traffic.
func NewRecorder() *Recorder { return obs.NewRecorder(core.StageNames()...) }

// The alignment error taxonomy. Errors returned by the facade wrap these
// sentinels (with page or document context), so callers branch with
// errors.Is instead of matching strings.
var (
	// ErrNoTables reports a page with no table containing numeric cells —
	// nothing to align against.
	ErrNoTables = core.ErrNoTables
	// ErrNoMentions reports a page whose tables are fine but whose text has
	// no alignable quantity mentions.
	ErrNoMentions = core.ErrNoMentions
	// ErrUntrained reports an operation that needs trained models on a
	// heuristic-only pipeline (for example persisting models that were
	// never trained, or loading a model bundle without a classifier).
	ErrUntrained = core.ErrUntrained
	// ErrOverloaded reports a request shed by admission control
	// (WithMaxInFlight): every in-flight slot was taken and the wait queue
	// was at its watermark. No pipeline work was done; retry after backoff.
	ErrOverloaded = serve.ErrOverloaded
	// ErrDeadlineBudget reports a request whose context expired while it
	// waited for admission — its deadline budget was spent queuing.
	ErrDeadlineBudget = serve.ErrDeadlineBudget
	// ErrBadQuery reports an uninterpretable quantity-search query (no
	// numeric value, malformed comparison, invalid parameters) — the
	// validation taxonomy of /v1/search and /v1/facts.
	ErrBadQuery = quantsearch.ErrBadQuery
)

// Option configures the pipeline returned by New.
type Option func(*config)

type config struct {
	trainSeed   *int64
	workers     int
	recorder    *obs.Recorder
	cacheBytes  int64
	maxInFlight int
	resolver    resolverConfig
	warnings    []string
}

func (c *config) warnf(format string, args ...any) {
	c.warnings = append(c.warnings, fmt.Sprintf(format, args...))
}

// WithTrainedSeed trains the mention-pair classifier and the text-mention
// tagger on the deterministic synthetic corpus generated from seed (standing
// in for the paper's annotated tableS data) before returning the pipeline.
// Training takes a few seconds and turns the heuristic pipeline into full
// BriQ.
func WithTrainedSeed(seed int64) Option {
	return func(c *config) { c.trainSeed = &seed }
}

// WithWorkers sets the default fan-out width for corpus-scale alignment
// (AlignCorpus and the batch paths built on the internal runtime pool).
// A width below 1 is invalid: it is clamped to the GOMAXPROCS default and
// recorded in the pipeline's ConfigWarnings.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.warnf("WithWorkers(%d): fan-out width must be ≥ 1; using GOMAXPROCS", n)
			c.workers = 0
			return
		}
		c.workers = n
	}
}

// WithRecorder attaches a latency Recorder: every aligned document reports
// its per-stage timings (classify, filter, resolve/<strategy>, …) to it.
// Corpus runs record
// into per-worker recorders and merge into r when the run completes.
func WithRecorder(r *Recorder) Option {
	return func(c *config) { c.recorder = r }
}

// WithCache bounds a content-addressed result cache at bytes and routes
// AlignHTMLContext and AlignCorpus through it: requests whose model
// fingerprint and input are byte-identical to a previous one are served from
// memory, and concurrent identical requests coalesce into a single pipeline
// run. Cached results are byte-identical to fresh runs; callers must treat
// returned alignments as read-only. bytes ≤ 0 disables the cache; a negative
// value is clamped to 0 and recorded in ConfigWarnings.
func WithCache(bytes int64) Option {
	return func(c *config) {
		if bytes < 0 {
			c.warnf("WithCache(%d): negative byte budget; caching disabled", bytes)
			c.cacheBytes = 0
			return
		}
		c.cacheBytes = bytes
	}
}

// WithMaxInFlight bounds the number of concurrently admitted pipeline
// computations across AlignHTMLContext and AlignCorpus. Up to 2n further
// requests wait for a slot; beyond that watermark requests fail fast with
// ErrOverloaded, and a request whose context dies while queued fails with
// ErrDeadlineBudget. n ≤ 0 disables admission control; a negative value is
// clamped to 0 and recorded in ConfigWarnings.
func WithMaxInFlight(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.warnf("WithMaxInFlight(%d): negative bound; admission control disabled", n)
			c.maxInFlight = 0
			return
		}
		c.maxInFlight = n
	}
}

// ResolverNames lists the built-in global-resolution strategies accepted by
// WithResolver and the briq-server -resolver flag, default first:
// "rwr" (the paper's random-walk algorithm), "ilp" (exact branch-and-bound
// with a per-document time budget and rwr fallback) and "greedy" (top-1
// classifier score, the cheap baseline).
func ResolverNames() []string { return resolve.Names() }

// KnownResolver reports whether name is a built-in resolution strategy — the
// startup validation hook for servers that take the strategy from a flag.
func KnownResolver(name string) bool { return resolve.Known(name) }

// ResolverOption tunes the strategy selected by WithResolver.
type ResolverOption func(*resolverConfig)

type resolverConfig struct {
	name           string
	ilpBudget      time.Duration
	greedyMinScore float64
	set            bool
}

// WithILPBudget bounds the per-document branch-and-bound solve of the "ilp"
// strategy; on exhaustion the document falls back to the rwr strategy. It is
// ignored by other strategies. d ≤ 0 is invalid: the default budget is used
// and a ConfigWarning recorded.
func WithILPBudget(d time.Duration) ResolverOption {
	return func(rc *resolverConfig) { rc.ilpBudget = d }
}

// WithGreedyMinScore sets the acceptance threshold of the "greedy" strategy:
// a mention whose best candidate scores below it abstains. It is ignored by
// other strategies. Values outside [0, 1] are invalid: the default threshold
// is used and a ConfigWarning recorded.
func WithGreedyMinScore(s float64) ResolverOption {
	return func(rc *resolverConfig) { rc.greedyMinScore = s }
}

// WithResolver selects the global-resolution strategy by name (see
// ResolverNames). The default — equivalent to omitting the option — is "rwr",
// the paper's random-walk algorithm; its output is byte-identical whether
// selected explicitly or by default. An unknown name falls back to the
// default strategy and is recorded in the pipeline's ConfigWarnings (servers
// that must hard-fail validate with KnownResolver first).
//
// The strategy is part of the pipeline fingerprint, so results cached by the
// serving layer are never shared across strategies or strategy parameters.
func WithResolver(name string, opts ...ResolverOption) Option {
	return func(c *config) {
		c.resolver = resolverConfig{
			name:           name,
			greedyMinScore: resolve.DefaultGreedyMinScore,
			set:            true,
		}
		for _, opt := range opts {
			opt(&c.resolver)
		}
	}
}

// buildResolver materializes the WithResolver selection against the
// pipeline's graph configuration, clamping out-of-range parameters into
// warnings. A nil return selects the pipeline's built-in default (rwr).
func (c *config) buildResolver(p *core.Pipeline) resolve.Resolver {
	rc := &c.resolver
	if !rc.set {
		return nil
	}
	switch rc.name {
	case resolve.NameRWR:
		// The default strategy: leave Resolver nil so the pipeline keeps
		// assembling it from GraphConfig on every Align (tuning-transparent,
		// byte-identical to the pre-interface path).
		return nil
	case resolve.NameILP:
		budget := rc.ilpBudget
		if budget < 0 {
			c.warnf("WithILPBudget(%v): budget must be positive; using default %v",
				budget, resolve.DefaultILPBudget)
			budget = 0
		}
		return resolve.NewILP(p.GraphConfig, budget)
	case resolve.NameGreedy:
		min := rc.greedyMinScore
		if min < 0 || min > 1 {
			c.warnf("WithGreedyMinScore(%g): threshold must be in [0, 1]; using default %g",
				min, resolve.DefaultGreedyMinScore)
			min = resolve.DefaultGreedyMinScore
		}
		return resolve.NewGreedy(min)
	default:
		c.warnf("WithResolver(%q): unknown strategy (known: %v); using default %q",
			rc.name, resolve.Names(), resolve.NameRWR)
		return nil
	}
}

// New returns a pipeline configured by the given options; with none it is
// the default configuration: rule-based tagger and heuristic (untrained)
// pair scoring, useful for experimentation and demos.
//
// Out-of-range option values are clamped to their safe default and recorded
// in the pipeline's ConfigWarnings rather than silently misbehaving.
//
// New panics if WithTrainedSeed training fails — impossible for the built-in
// corpus generator short of a programming error.
func New(opts ...Option) *Pipeline {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	p := core.NewPipeline()
	if cfg.trainSeed != nil {
		trained, err := newTrained(*cfg.trainSeed)
		if err != nil {
			panic("briq: training failed: " + err.Error())
		}
		p = trained
	}
	return cfg.finish(p)
}

// finish applies the post-model configuration — fan-out, recorder, resolver,
// serving gate — to a pipeline whose models are already in place. The
// resolver must be set before the serving gate is built: the gate captures
// the pipeline fingerprint, which includes the strategy.
func (c *config) finish(p *core.Pipeline) *Pipeline {
	p.Workers = c.workers
	p.Recorder = c.recorder
	p.Resolver = c.buildResolver(p)
	p.ConfigWarnings = c.warnings
	if c.cacheBytes > 0 || c.maxInFlight > 0 {
		p.Gate = serve.NewEngine(serve.Config{
			Fingerprint: p.Fingerprint(),
			CacheBytes:  c.cacheBytes,
			MaxInFlight: c.maxInFlight,
			MaxQueue:    serve.DefaultMaxQueue,
		})
	}
	return p
}

// NewFromModelFile builds a pipeline from a model bundle written by
// briq-train, applying the same options New accepts (cache, admission,
// resolver, workers, …). Loading is how a replica fleet boots every process
// from one training run: all replicas share a model fingerprint, so a
// gateway can route by content key knowing any replica computes an
// identical, cache-compatible result. WithTrainedSeed conflicts with
// loading and is rejected.
func NewFromModelFile(path string, opts ...Option) (*Pipeline, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.trainSeed != nil {
		return nil, fmt.Errorf("briq: NewFromModelFile: WithTrainedSeed conflicts with loading models from %s", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("briq: load models: %w", err)
	}
	defer f.Close()
	tr, err := experiment.LoadModels(f)
	if err != nil {
		return nil, fmt.Errorf("briq: load models from %s: %w", path, err)
	}
	return cfg.finish(experiment.NewBriQ(tr).P), nil
}

// newTrained generates a deterministic synthetic training corpus, trains the
// mention-pair classifier and the text-mention tagger on it, and returns the
// full BriQ pipeline.
func newTrained(seed int64) (*Pipeline, error) {
	cfg := corpus.TableSConfig(seed)
	cfg.Pages = 150 // enough gold pairs for stable models
	c := corpus.Generate(cfg)
	split := experiment.SplitCorpus(c, seed)
	trained, err := experiment.Train(c, split.Train, experiment.DefaultTrainOptions(seed))
	if err != nil {
		return nil, err
	}
	return experiment.NewBriQ(trained).P, nil
}

// AlignHTMLContext parses an HTML page and aligns every quantity mention of
// its paragraphs to the related tables, honoring ctx between pipeline
// phases. A page with nothing to align fails with ErrNoTables or
// ErrNoMentions (wrapped; test with errors.Is).
//
// On a pipeline with a serving layer (WithCache / WithMaxInFlight) the
// request is content-addressed: a repeat of a previously aligned
// (pageID, html) pair is a cache hit — byte-identical to a fresh run —
// concurrent identical requests trigger exactly one pipeline run, and under
// saturation the request may fail with ErrOverloaded or ErrDeadlineBudget.
// Returned alignments must then be treated as read-only.
//
// With a sink attached, the page's documents replace whatever the sink held
// for pageID. A request answered from the page cache writes nothing.
func AlignHTMLContext(ctx context.Context, p *Pipeline, pageID, html string) ([]Alignment, error) {
	if p.Gate == nil {
		page := htmlx.ParseString(html)
		docs, perDoc, err := p.AlignPageDocsContext(ctx, pageID, page)
		if err != nil {
			return nil, err
		}
		writePages(p, docs, nil, perDoc, serve.Key{})
		return flattenAlignments(perDoc), nil
	}
	key := p.Gate.PageKey(pageID, html)
	v, _, err := p.Gate.Do(ctx, key, func(ctx context.Context) (any, int64, error) {
		page := htmlx.ParseString(html)
		docs, perDoc, err := p.AlignPageDocsContext(ctx, pageID, page)
		if err != nil {
			return nil, 0, err
		}
		// Leader-only: cache hits skip the closure. The page key travels
		// with the write so a restarted store can warm this answer back.
		writePages(p, docs, nil, perDoc, key)
		als := flattenAlignments(perDoc)
		return als, core.AlignmentsSize(als), nil
	})
	if err != nil {
		return nil, err
	}
	return copyAlignments(v.([]Alignment)), nil
}

// writePages hands aligned documents to the pipeline's sink as one
// whole-page write per PageID, in first-seen order: each group is that
// page's complete document set. keys, when non-nil, are the documents'
// content addresses, already derived for the cache lookup; pageKey is the
// page request's cache key, zero for corpus calls.
func writePages(p *Pipeline, docs []*Document, keys []serve.Key, perDoc [][]Alignment, pageKey serve.Key) {
	if p.Sink == nil {
		return
	}
	pages := make(map[string]*core.PageWrite)
	var order []*core.PageWrite
	for i, d := range docs {
		w := pages[d.PageID]
		if w == nil {
			w = &core.PageWrite{PageID: d.PageID, PageKey: pageKey}
			pages[d.PageID] = w
			order = append(order, w)
		}
		w.Docs = append(w.Docs, d)
		w.Alignments = append(w.Alignments, perDoc[i])
		if keys != nil {
			w.Keys = append(w.Keys, keys[i])
		}
	}
	for _, w := range order {
		p.Sink.WritePage(*w)
	}
}

// flattenAlignments concatenates per-document groups in order, preserving
// nil-ness when nothing aligned (so sink-wired and plain paths marshal
// identically).
func flattenAlignments(perDoc [][]Alignment) []Alignment {
	var out []Alignment
	for _, als := range perDoc {
		out = append(out, als...)
	}
	return out
}

// IsUnalignable reports whether err only says the input had nothing to align
// (ErrNoTables or ErrNoMentions) — the "empty, not broken" class of the
// taxonomy, which batch ingestion over noisy pages typically skips.
func IsUnalignable(err error) bool {
	return errors.Is(err, ErrNoTables) || errors.Is(err, ErrNoMentions)
}

// AlignCorpus aligns a document corpus concurrently on the internal runtime
// pool — per-worker pipeline clones fed through bounded channels — using the
// pipeline's Workers as the fan-out width. The result order is deterministic
// (document ID, then text mention) and byte-for-byte identical to a serial
// run. On cancellation it returns ctx.Err(); stage latencies merge into the
// pipeline's Recorder when one is attached.
//
// On a pipeline with a serving layer, each document is content-addressed
// individually: documents already aligned under the same models are served
// from the cache and only the misses fan out over the pool, and the whole
// corpus run occupies one admission slot (failing fast with ErrOverloaded /
// ErrDeadlineBudget under saturation).
//
// With a sink attached, the documents of one call that share a PageID are
// that page's complete document set: each page is written whole, and
// documents a previous write held for the page but this call omits leave the
// corpus. Send every document of a page in one call.
func AlignCorpus(ctx context.Context, p *Pipeline, docs []*Document) ([]Alignment, error) {
	if p.Gate == nil {
		pool := runtime.NewPool(p, runtime.Options{})
		perDoc, err := pool.AlignPerDoc(ctx, docs)
		if p.Recorder != nil {
			pool.MergeInto(p.Recorder)
		}
		if err != nil {
			return nil, err
		}
		writePages(p, docs, nil, perDoc, serve.Key{})
		out := flattenAlignments(perDoc)
		core.SortAlignments(out)
		return out, nil
	}

	release, err := p.Gate.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	fp := p.Gate.Fingerprint()
	keys := make([]serve.Key, len(docs))
	perDoc := make([][]Alignment, len(docs))
	var missDocs []*Document
	var missIdx []int
	for i, doc := range docs {
		keys[i] = core.DocumentKey(fp, doc)
		if v, ok := p.Gate.Lookup(keys[i]); ok {
			perDoc[i] = v.([]Alignment)
			continue
		}
		missDocs = append(missDocs, doc)
		missIdx = append(missIdx, i)
	}

	if len(missDocs) > 0 {
		pool := runtime.NewPool(p, runtime.Options{})
		fresh, err := pool.AlignPerDoc(ctx, missDocs)
		if p.Recorder != nil {
			pool.MergeInto(p.Recorder)
		}
		if err != nil {
			return nil, err
		}
		for j, als := range fresh {
			i := missIdx[j]
			perDoc[i] = als
			p.Gate.Store(keys[i], als, core.AlignmentsSize(als))
		}
	}
	writePages(p, docs, keys, perDoc, serve.Key{})

	out := flattenAlignments(perDoc)
	core.SortAlignments(out)
	return out, nil
}

// copyAlignments returns a private copy of a cached result, preserving
// nil-ness and emptiness (so cached and fresh responses marshal
// identically), without sharing the backing array the cache retains.
func copyAlignments(als []Alignment) []Alignment {
	if als == nil {
		return nil
	}
	out := make([]Alignment, len(als))
	copy(out, als)
	return out
}
