package core

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"briq/internal/document"
	"briq/internal/serve"
)

// DocumentParts returns the SHA-256 digests of a document's two content
// parts — the units of change a re-crawled page exhibits: an edited
// paragraph moves only the text digest, an edited table only the tables
// digest, which is how the ingest path tells which half of a document moved.
//
// The text part is the paragraph text plus every field of every text
// mention. The tables part is each table's ID, caption, column and row
// headers, footers, shape and cell texts, plus every table mention's table
// ID, aggregate, input cells, value, unit, orientation and index. Every
// field is length-prefixed or fixed-width, so two documents share a part
// digest only when those fields are equal.
func DocumentParts(d *document.Document) (text, tables [sha256.Size]byte) {
	e := encoders.Get().(*partEncoder)
	e.text(d)
	e.sum(&text)
	e.tables(d)
	e.sum(&tables)
	encoders.Put(e)
	return text, tables
}

// DocumentKey returns a document's content address under a model
// fingerprint: its position (ID, page) plus its two part digests. It is the
// single definition of per-document identity — the facade's corpus cache,
// the persistent store and the ingest reuse check all file a document under
// this key. Changing what it covers changes stored keys, which needs a store
// version bump.
func DocumentKey(fingerprint string, d *document.Document) serve.Key {
	text, tables := DocumentParts(d)
	return serve.DocKeyOf(fingerprint, d.ID, d.PageID, text, tables)
}

// encodeChunk is the buffer size at which a partEncoder hands its bytes to
// the hash.
const encodeChunk = 4 << 10

var encoders = sync.Pool{New: func() any {
	return &partEncoder{h: sha256.New(), buf: make([]byte, 0, 2*encodeChunk), digest: make([]byte, 0, sha256.Size)}
}}

// partEncoder writes one content part as a stream of self-delimiting binary
// fields: strings as a uvarint length plus bytes, integers as varints,
// floats as their IEEE-754 bits, lists as a uvarint count plus elements.
// Fields accumulate in buf, which is fed to the hash whenever it passes
// encodeChunk.
type partEncoder struct {
	h      hash.Hash
	buf    []byte
	digest []byte // Sum's output, reused so the digest does not escape per call
}

func (e *partEncoder) text(d *document.Document) {
	e.str(d.Text)
	e.uvarint(len(d.TextMentions))
	for i := range d.TextMentions {
		m := &d.TextMentions[i]
		e.str(m.Surface)
		e.float(m.Value)
		e.float(m.RawValue)
		e.str(m.Unit)
		e.varint(m.Scale)
		e.varint(m.Precision)
		e.varint(int(m.Approx))
		e.varint(m.Start)
		e.varint(m.End)
		e.varint(m.Sentence)
		e.varint(m.TokenPos)
		e.spill()
	}
}

func (e *partEncoder) tables(d *document.Document) {
	e.uvarint(len(d.Tables))
	for _, t := range d.Tables {
		e.str(t.ID)
		e.str(t.Caption)
		e.strs(t.ColHeaders)
		e.strs(t.RowHeaders)
		e.strs(t.Footers)
		rows, cols := t.Rows(), t.Cols()
		e.uvarint(rows)
		e.uvarint(cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				e.str(t.Cell(r, c).Text)
				e.spill()
			}
		}
	}
	e.uvarint(len(d.TableMentions))
	for _, m := range d.TableMentions {
		e.str(m.Table.ID)
		e.varint(int(m.Agg))
		e.uvarint(len(m.Cells))
		for _, c := range m.Cells {
			e.varint(c.Row)
			e.varint(c.Col)
		}
		e.float(m.Value)
		e.str(m.Unit)
		e.varint(int(m.Orient))
		e.varint(m.Index)
		e.spill()
	}
}

// str writes a long string through the hash a chunk at a time, so the
// buffer stays near encodeChunk whatever the input.
func (e *partEncoder) str(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	for len(s) > encodeChunk {
		e.buf = append(e.buf, s[:encodeChunk]...)
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
		s = s[encodeChunk:]
	}
	e.buf = append(e.buf, s...)
}

func (e *partEncoder) strs(ss []string) {
	e.uvarint(len(ss))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *partEncoder) uvarint(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }

func (e *partEncoder) varint(v int) { e.buf = binary.AppendVarint(e.buf, int64(v)) }

func (e *partEncoder) float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// spill feeds the buffer to the hash once it holds a full chunk.
func (e *partEncoder) spill() {
	if len(e.buf) >= encodeChunk {
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

// sum writes the digest of everything encoded since the last sum into out
// and resets the encoder for the next part.
func (e *partEncoder) sum(out *[sha256.Size]byte) {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
	e.digest = e.h.Sum(e.digest[:0])
	copy(out[:], e.digest)
	e.h.Reset()
}
