package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
)

// Key is a content address: the SHA-256 of the model fingerprint plus the
// request content. Two requests share a key iff the same models would see
// byte-identical input.
type Key [sha256.Size]byte

// String returns the key in hex, for logs and tests.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes the hex form produced by String — the persistent store
// round-trips keys through its on-disk log this way.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("serve: bad key %q: %w", s, err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("serve: bad key %q: %d bytes, want %d", s, len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// PageKeyOf is the Engine-less form of Engine.PageKey.
func PageKeyOf(fingerprint, pageID, html string) Key {
	w := newKeyWriter(fingerprint)
	w.str("page")
	w.str(pageID)
	w.str(html)
	return w.sum()
}

// PartDigest is the SHA-256 of one document content part (paragraph text or
// tables, see core.DocumentParts), fingerprint-free; DocKeyOf scopes a pair
// of them into a document Key.
type PartDigest = [sha256.Size]byte

// DocKeyOf combines a document's position and its two part digests into the
// document's content address. core.DocumentKey computes the digests; every
// path that files or looks up a document goes through it.
func DocKeyOf(fingerprint, docID, pageID string, text, tables PartDigest) Key {
	w := newKeyWriter(fingerprint)
	w.str("doc")
	w.str(docID)
	w.str(pageID)
	w.h.Write(text[:])
	w.h.Write(tables[:])
	return w.sum()
}

// keyWriter incrementally builds a Key. Every field is length-prefixed so
// ("ab","c") and ("a","bc") cannot collide.
type keyWriter struct {
	h hash.Hash
}

func newKeyWriter(fingerprint string) *keyWriter {
	w := &keyWriter{h: sha256.New()}
	w.str(fingerprint)
	return w
}

func (w *keyWriter) str(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	w.h.Write(n[:])
	io.WriteString(w.h, s)
}

func (w *keyWriter) sum() Key {
	var k Key
	w.h.Sum(k[:0])
	return k
}
