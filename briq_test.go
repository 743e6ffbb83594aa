package briq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"briq"
	"briq/internal/corpus"
)

const quickstartPage = `<html><head><title>Drug Trial</title></head><body>
<p>A total of 123 patients reported side effects, of which there were 69
female patients and 54 male patients.</p>
<table>
<caption>side effects reported by patients</caption>
<tr><th>side effects</th><th>male</th><th>female</th><th>total</th></tr>
<tr><td>Rash</td><td>15</td><td>20</td><td>35</td></tr>
<tr><td>Depression</td><td>13</td><td>25</td><td>38</td></tr>
<tr><td>Hypertension</td><td>19</td><td>15</td><td>34</td></tr>
<tr><td>Nausea</td><td>5</td><td>6</td><td>11</td></tr>
<tr><td>Eye Disorders</td><td>2</td><td>3</td><td>5</td></tr>
</table>
</body></html>`

func TestAlignHTMLFacade(t *testing.T) {
	alignments, err := briq.AlignHTMLContext(context.Background(), briq.New(), "p0", quickstartPage)
	if err != nil {
		t.Fatal(err)
	}
	if len(alignments) == 0 {
		t.Fatal("no alignments")
	}
	foundSum := false
	for _, a := range alignments {
		if strings.Contains(a.TextSurface, "123") && a.AggName == "sum" && a.Value == 123 {
			foundSum = true
		}
	}
	if !foundSum {
		t.Errorf("'total of 123' not aligned to the column sum: %+v", alignments)
	}
}

// TestOptionsConfigure pins the functional-options surface: workers and
// recorder land on the pipeline, and a recorder attached via WithRecorder
// observes every stage of an aligned page.
func TestOptionsConfigure(t *testing.T) {
	rec := briq.NewRecorder()
	p := briq.New(briq.WithWorkers(8), briq.WithRecorder(rec))
	if p.Workers != 8 {
		t.Errorf("Workers = %d, want 8", p.Workers)
	}
	if p.Recorder != rec {
		t.Error("WithRecorder did not attach the recorder")
	}

	if _, err := briq.AlignHTMLContext(context.Background(), p, "p0", quickstartPage); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap) == 0 {
		t.Fatal("recorder snapshot empty after aligning a page")
	}
	for stage, h := range snap {
		if strings.HasPrefix(stage, "resolve/") && stage != "resolve/"+p.ResolverName() {
			// Every strategy's stage is pre-registered for schema stability,
			// but only the selected strategy observes.
			if h.Count != 0 {
				t.Errorf("unselected resolver stage %s recorded %d observations", stage, h.Count)
			}
			continue
		}
		if h.Count == 0 {
			t.Errorf("stage %s recorded no observations", stage)
		}
	}
}

// TestErrorTaxonomy asserts the typed sentinels through the public facade
// with errors.Is — the page-shape errors wrap ErrNoTables / ErrNoMentions.
func TestErrorTaxonomy(t *testing.T) {
	p := briq.New()
	ctx := context.Background()

	_, err := briq.AlignHTMLContext(ctx, p, "p0", `<html><body><p>Only 42 words here.</p></body></html>`)
	if !errors.Is(err, briq.ErrNoTables) {
		t.Errorf("tableless page: err = %v, want ErrNoTables", err)
	}
	if !briq.IsUnalignable(err) {
		t.Errorf("ErrNoTables should be IsUnalignable, got %v", err)
	}

	_, err = briq.AlignHTMLContext(ctx, p, "p1", `<html><body>
<p>A paragraph about methodology with no figures at all.</p>
<table><tr><th>a</th><th>b</th></tr><tr><td>1</td><td>2</td></tr></table>
</body></html>`)
	if !errors.Is(err, briq.ErrNoMentions) {
		t.Errorf("mentionless page: err = %v, want ErrNoMentions", err)
	}
	if !briq.IsUnalignable(err) {
		t.Errorf("ErrNoMentions should be IsUnalignable, got %v", err)
	}

	if err := p.EnsureTrained(); !errors.Is(err, briq.ErrUntrained) {
		t.Errorf("heuristic pipeline: err = %v, want ErrUntrained", err)
	}
	if briq.IsUnalignable(briq.ErrUntrained) {
		t.Error("ErrUntrained must not be IsUnalignable")
	}
}

// TestAlignHTMLContextCancelled: a dead context surfaces through the facade.
func TestAlignHTMLContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := briq.AlignHTMLContext(ctx, briq.New(), "p0", quickstartPage); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAlignCorpusFacade: the concurrent corpus path is byte-identical to the
// serial AlignAll result, and the attached recorder sees the merged
// pool-side observations.
func TestAlignCorpusFacade(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(42, 4))
	rec := briq.NewRecorder()
	p := briq.New(briq.WithWorkers(4), briq.WithRecorder(rec))

	serial := p.AlignAll(c.Docs, 1)
	got, err := briq.AlignCorpus(context.Background(), p, c.Docs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(serial)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("AlignCorpus output diverged from serial AlignAll")
	}

	snap := rec.Snapshot()
	// The serial AlignAll above also recorded into rec, so expect 2×docs.
	if want := int64(2 * len(c.Docs)); snap["align"].Count != want {
		t.Errorf("align stage count = %d, want %d", snap["align"].Count, want)
	}
}

func TestAlignCorpusCancelled(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(7, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := briq.AlignCorpus(ctx, briq.New(), c.Docs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNewTrainedFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("training takes a few seconds")
	}
	p := briq.New(briq.WithTrainedSeed(7))
	if err := p.EnsureTrained(); err != nil {
		t.Fatalf("WithTrainedSeed pipeline reports %v", err)
	}
	alignments, err := briq.AlignHTMLContext(context.Background(), p, "p0", quickstartPage)
	if err != nil {
		t.Fatal(err)
	}
	if len(alignments) == 0 {
		t.Fatal("trained pipeline produced no alignments")
	}
}
