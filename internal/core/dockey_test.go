package core

import (
	"fmt"
	"math"
	"testing"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/quantity"
	"briq/internal/serve"
	"briq/internal/table"
)

func mustTable(t testing.TB, id, caption string, grid [][]string) *table.Table {
	t.Helper()
	tbl, err := table.New(id, caption, grid)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestDocumentPartsUnambiguous pins two document pairs that differ only in
// where one field ends and the next begins. An encoding without length
// prefixes gives each pair one digest.
func TestDocumentPartsUnambiguous(t *testing.T) {
	grid := [][]string{{"1", "2"}, {"3", "4"}}
	m := quantity.Mention{Surface: "12", Value: 12, RawValue: 12, End: 2}
	withMention := &document.Document{
		Text:         "foo",
		TextMentions: []quantity.Mention{m},
		Tables:       []*table.Table{mustTable(t, "t", "", grid)},
	}
	inText := &document.Document{
		Text:   "foo|xm|" + fmt.Sprintf("%+v", m),
		Tables: []*table.Table{mustTable(t, "t", "", grid)},
	}
	if a, _ := DocumentParts(withMention); a == textPart(inText) {
		t.Error("a mention and the same mention spelled into the paragraph share a text digest")
	}

	idHolds := &document.Document{Text: "foo", Tables: []*table.Table{mustTable(t, "t|x", "y", grid)}}
	captionHolds := &document.Document{Text: "foo", Tables: []*table.Table{mustTable(t, "t", "x|y", grid)}}
	if _, a := DocumentParts(idHolds); a == tablesPart(captionHolds) {
		t.Error(`table ID "t|x" with caption "y" and ID "t" with caption "x|y" share a tables digest`)
	}
}

func textPart(d *document.Document) [32]byte {
	text, _ := DocumentParts(d)
	return text
}

func tablesPart(d *document.Document) [32]byte {
	_, tables := DocumentParts(d)
	return tables
}

// coverageDoc builds a small document that sets every encoded field to a
// value distinct from its zero value: two text mentions, one table with
// headers and footers, a single-cell and a two-cell table mention.
func coverageDoc(t testing.TB) *document.Document {
	tbl := mustTable(t, "t0", "Revenue (USD)", [][]string{{"10", "20", "30"}, {"40", "50", "60"}})
	tbl.ColHeaders = []string{"2019", "2020", "2021"}
	tbl.RowHeaders = []string{"north", "south"}
	tbl.Footers = []string{"in thousands"}
	mention := func(surface string, v float64, start int) quantity.Mention {
		return quantity.Mention{Surface: surface, Value: v, RawValue: v, Unit: "USD", Scale: 1,
			Precision: 0, Approx: quantity.Approximate, Start: start, End: start + len(surface),
			Sentence: 1, TokenPos: start / 4}
	}
	return &document.Document{
		ID:     "p0#0",
		PageID: "p0",
		Text:   "Revenue grew to 30 and then 90 overall.",
		TextMentions: []quantity.Mention{
			mention("30", 30, 16), mention("90", 90, 28),
		},
		Tables: []*table.Table{tbl},
		TableMentions: []*table.Mention{
			{Table: tbl, Agg: quantity.SingleCell, Cells: []table.CellRef{{Row: 0, Col: 2}}, Value: 30, Unit: "USD", Index: 0},
			{Table: tbl, Agg: quantity.Sum, Cells: []table.CellRef{{Row: 0, Col: 2}, {Row: 1, Col: 2}}, Value: 90,
				Unit: "USD", Orient: table.OrientCol, Index: 1},
		},
	}
}

// TestDocumentPartsFieldCoverage mutates one encoded field at a time: the
// mutation must move its own part digest and the document key and leave the
// other part alone. Position fields (ID, page) move only the key.
func TestDocumentPartsFieldCoverage(t *testing.T) {
	const (
		textSide = iota
		tablesSide
		keyOnly
	)
	cases := []struct {
		name   string
		side   int
		mutate func(d *document.Document)
	}{
		{"doc ID", keyOnly, func(d *document.Document) { d.ID = "p0#1" }},
		{"page ID", keyOnly, func(d *document.Document) { d.PageID = "p1" }},

		{"text", textSide, func(d *document.Document) { d.Text += " " }},
		{"text mention dropped", textSide, func(d *document.Document) { d.TextMentions = d.TextMentions[:1] }},
		{"mention Surface", textSide, func(d *document.Document) { d.TextMentions[1].Surface = "90.0" }},
		{"mention Value", textSide, func(d *document.Document) { d.TextMentions[1].Value = 91 }},
		{"mention Value sign of zero", textSide, func(d *document.Document) { d.TextMentions[1].Value = math.Copysign(0, -1) }},
		{"mention RawValue", textSide, func(d *document.Document) { d.TextMentions[1].RawValue = 0.09 }},
		{"mention Unit", textSide, func(d *document.Document) { d.TextMentions[1].Unit = "EUR" }},
		{"mention Scale", textSide, func(d *document.Document) { d.TextMentions[1].Scale = 2 }},
		{"mention Precision", textSide, func(d *document.Document) { d.TextMentions[1].Precision = 1 }},
		{"mention Approx", textSide, func(d *document.Document) { d.TextMentions[1].Approx = quantity.ApproxExact }},
		{"mention Start", textSide, func(d *document.Document) { d.TextMentions[1].Start++ }},
		{"mention End", textSide, func(d *document.Document) { d.TextMentions[1].End++ }},
		{"mention Sentence", textSide, func(d *document.Document) { d.TextMentions[1].Sentence = 0 }},
		{"mention TokenPos", textSide, func(d *document.Document) { d.TextMentions[1].TokenPos++ }},

		{"table ID", tablesSide, func(d *document.Document) { d.Tables[0].ID = "t1" }},
		{"table Caption", tablesSide, func(d *document.Document) { d.Tables[0].Caption = "Revenue" }},
		{"table ColHeaders", tablesSide, func(d *document.Document) { d.Tables[0].ColHeaders[2] = "2022" }},
		{"table RowHeaders", tablesSide, func(d *document.Document) { d.Tables[0].RowHeaders[1] = "east" }},
		{"table Footers", tablesSide, func(d *document.Document) { d.Tables[0].Footers = append(d.Tables[0].Footers, "") }},
		{"table cell text", tablesSide, func(d *document.Document) { d.Tables[0].Cell(1, 1).Text = "55" }},
		{"table shape", tablesSide, func(d *document.Document) {
			tbl := mustTable(t, "t0", "Revenue (USD)", [][]string{{"10", "20"}, {"30", "40"}, {"50", "60"}})
			tbl.ColHeaders, tbl.RowHeaders, tbl.Footers = d.Tables[0].ColHeaders, d.Tables[0].RowHeaders, d.Tables[0].Footers
			d.Tables[0] = tbl
		}},
		{"table dropped", tablesSide, func(d *document.Document) { d.Tables = nil }},
		{"table mention dropped", tablesSide, func(d *document.Document) { d.TableMentions = d.TableMentions[:1] }},
		{"table mention table ID", tablesSide, func(d *document.Document) {
			other := *d.Tables[0]
			other.ID = "t9"
			d.TableMentions[1].Table = &other
		}},
		{"table mention Agg", tablesSide, func(d *document.Document) { d.TableMentions[1].Agg = quantity.Diff }},
		{"table mention first cell", tablesSide, func(d *document.Document) { d.TableMentions[1].Cells[0].Row = 1 }},
		{"table mention non-first cell", tablesSide, func(d *document.Document) { d.TableMentions[1].Cells[1].Col = 1 }},
		{"table mention cell dropped", tablesSide, func(d *document.Document) { d.TableMentions[1].Cells = d.TableMentions[1].Cells[:1] }},
		{"table mention Value", tablesSide, func(d *document.Document) { d.TableMentions[1].Value = 90.5 }},
		{"table mention Unit", tablesSide, func(d *document.Document) { d.TableMentions[1].Unit = "" }},
		{"table mention Orient", tablesSide, func(d *document.Document) { d.TableMentions[1].Orient = table.OrientRow }},
		{"table mention Index", tablesSide, func(d *document.Document) { d.TableMentions[1].Index = 7 }},
	}
	base := coverageDoc(t)
	text, tables := DocumentParts(base)
	key := DocumentKey("fp", base)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := coverageDoc(t)
			tc.mutate(d)
			mtext, mtables := DocumentParts(d)
			if DocumentKey("fp", d) == key {
				t.Error("document key did not change")
			}
			if moved := mtext != text; moved != (tc.side == textSide) {
				t.Errorf("text digest moved = %v", moved)
			}
			if moved := mtables != tables; moved != (tc.side == tablesSide) {
				t.Errorf("tables digest moved = %v", moved)
			}
		})
	}
}

// TestDocumentKeySegmentationStable: segmenting the same page source twice
// gives the same keys, and the documents of a generated corpus all get
// distinct keys.
func TestDocumentKeySegmentationStable(t *testing.T) {
	cfg := corpus.TableSConfig(5)
	cfg.Pages = 8
	c := corpus.Generate(cfg)
	seg := document.NewSegmenter()
	seen := make(map[serve.Key]string)
	for _, pg := range c.Pages {
		html := pg.HTML()
		first, err := seg.SegmentPage(pg.ID, htmlx.ParseString(html))
		if err != nil {
			t.Fatal(err)
		}
		second, err := seg.SegmentPage(pg.ID, htmlx.ParseString(html))
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range first {
			k := DocumentKey("fp", d)
			if k2 := DocumentKey("fp", second[i]); k2 != k {
				t.Fatalf("doc %s: key %s, re-segmented %s", d.ID, k, k2)
			}
			if other, dup := seen[k]; dup {
				t.Fatalf("docs %s and %s share key %s", other, d.ID, k)
			}
			seen[k] = d.ID
		}
	}
}

// TestDocumentKeyGolden pins the encodings behind stored keys. The store
// files documents under DocumentKey and warms the page cache under
// PageKeyOf, so a change to either value must come with a store version
// bump (internal/store: version), or stores written before the change would
// replay under keys that no longer match any request.
func TestDocumentKeyGolden(t *testing.T) {
	const (
		wantDoc  = "6aa618f48787e6e1e3f35edf478b1ac18e26658f301fc712509ae4b589ed0508"
		wantPage = "e79faa04e1b1788f0b7ed018ed35bfd6b7eec4592e4bb54f983934b5b8071fe1"
	)
	if got := DocumentKey("briq-golden", coverageDoc(t)).String(); got != wantDoc {
		t.Errorf("DocumentKey = %s, want %s", got, wantDoc)
	}
	if got := serve.PageKeyOf("briq-golden", "p0", "<p>A total of 90.</p>").String(); got != wantPage {
		t.Errorf("PageKeyOf = %s, want %s", got, wantPage)
	}
}

// fuzzDoc builds a document from fuzzed fields: mentions%3 copies of one
// text mention, one table, and (for mentions ≥ 3) the table's derived
// mentions.
func fuzzDoc(text, surface string, value float64, mentions uint8, id, caption, cell string) *document.Document {
	d := &document.Document{Text: text}
	for i := 0; i < int(mentions%3); i++ {
		d.TextMentions = append(d.TextMentions, quantity.Mention{
			Surface: surface, Value: value, RawValue: value, Start: i, End: i + len(surface)})
	}
	if tbl, err := table.New(id, caption, [][]string{{cell, "2"}, {"3", "4"}}); err == nil {
		d.Tables = []*table.Table{tbl}
		if mentions >= 3 {
			d.TableMentions = tbl.Mentions(table.DefaultVirtualOptions())
		}
	}
	return d
}

// FuzzDocumentParts checks that equal part digests mean equal encoded
// fields. The committed corpus holds the two boundary-shift pairs of
// TestDocumentPartsUnambiguous.
func FuzzDocumentParts(f *testing.F) {
	f.Add("Revenue was 12.", "12", 12.0, uint8(1), "t0", "Revenue", "1",
		"Revenue was 12.", "12", 12.0, uint8(4), "t0", "Revenue", "1")
	f.Fuzz(func(t *testing.T,
		textA, surfA string, valA float64, nA uint8, idA, capA, cellA string,
		textB, surfB string, valB float64, nB uint8, idB, capB, cellB string) {
		a := fuzzDoc(textA, surfA, valA, nA, idA, capA, cellA)
		b := fuzzDoc(textB, surfB, valB, nB, idB, capB, cellB)
		ta, tba := DocumentParts(a)
		tb, tbb := DocumentParts(b)
		if ta == tb && !sameTextPart(a, b) {
			t.Fatalf("text digests equal for different text parts: %q %v vs %q %v",
				a.Text, a.TextMentions, b.Text, b.TextMentions)
		}
		if tba == tbb && !sameTablesPart(a, b) {
			t.Fatalf("tables digests equal for different tables parts: %q/%q vs %q/%q",
				idA, capA, idB, capB)
		}
	})
}

func sameTextPart(a, b *document.Document) bool {
	if a.Text != b.Text || len(a.TextMentions) != len(b.TextMentions) {
		return false
	}
	for i := range a.TextMentions {
		x, y := a.TextMentions[i], b.TextMentions[i]
		if !sameFloat(x.Value, y.Value) || !sameFloat(x.RawValue, y.RawValue) {
			return false
		}
		x.Value, x.RawValue, y.Value, y.RawValue = 0, 0, 0, 0
		if x != y {
			return false
		}
	}
	return true
}

func sameTablesPart(a, b *document.Document) bool {
	if len(a.Tables) != len(b.Tables) || len(a.TableMentions) != len(b.TableMentions) {
		return false
	}
	for i, x := range a.Tables {
		y := b.Tables[i]
		if x.ID != y.ID || x.Caption != y.Caption || !sameStrings(x.ColHeaders, y.ColHeaders) ||
			!sameStrings(x.RowHeaders, y.RowHeaders) || !sameStrings(x.Footers, y.Footers) ||
			x.Rows() != y.Rows() || x.Cols() != y.Cols() {
			return false
		}
		for r := 0; r < x.Rows(); r++ {
			for c := 0; c < x.Cols(); c++ {
				if x.Cell(r, c).Text != y.Cell(r, c).Text {
					return false
				}
			}
		}
	}
	for i, x := range a.TableMentions {
		y := b.TableMentions[i]
		if x.Table.ID != y.Table.ID || x.Agg != y.Agg || len(x.Cells) != len(y.Cells) ||
			!sameFloat(x.Value, y.Value) || x.Unit != y.Unit || x.Orient != y.Orient || x.Index != y.Index {
			return false
		}
		for j := range x.Cells {
			if x.Cells[j] != y.Cells[j] {
				return false
			}
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

var partsSink [32]byte

// BenchmarkDocumentParts measures both part digests over the documents of
// segmented generated pages, reported per document.
func BenchmarkDocumentParts(b *testing.B) {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 20
	c := corpus.Generate(cfg)
	seg := document.NewSegmenter()
	var docs []*document.Document
	for _, pg := range c.Pages {
		ds, err := seg.SegmentPage(pg.ID, htmlx.ParseString(pg.HTML()))
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, ds...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range docs {
			partsSink, _ = DocumentParts(d)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(docs)), "ns/doc")
}
