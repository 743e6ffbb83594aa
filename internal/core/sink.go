package core

import (
	"briq/internal/document"
	"briq/internal/serve"
)

// PageWrite is one page's complete, ordered document set with its
// alignments — the unit of every corpus write. Docs and Alignments are
// parallel. Keys, when non-nil, are the documents' DocumentKeys under the
// sink's fingerprint, already derived by the caller, so the sink need not
// hash them again. PageKey is the page-cache address of the request that
// produced the write, zero when the write did not come from one page request.
type PageWrite struct {
	PageID     string
	Docs       []*document.Document
	Alignments [][]Alignment
	Keys       []serve.Key
	PageKey    serve.Key
}

// AlignmentSink receives freshly aligned pages from the facade paths — the
// write-through seam the persistent store implements. WritePage makes the
// page's document set exactly w.Docs: documents of an earlier version of the
// page that are absent from w leave the corpus. A page request answered from
// the page cache is not re-offered; a corpus call offers every page it
// touched, cached documents included. Implementations must be safe for
// concurrent use and must not fail the alignment: persistence problems are
// theirs to count and log.
type AlignmentSink interface {
	WritePage(w PageWrite)
}

// AlignmentsSize estimates the resident bytes of a result slice for the
// serve cache's byte accounting: struct footprint plus string payloads. The
// facade and the persistent store's warm loader use the same estimate so
// cache occupancy is accounted identically on both paths.
func AlignmentsSize(als []Alignment) int64 {
	n := int64(len(als))*112 + 48
	for i := range als {
		a := &als[i]
		n += int64(len(a.DocID) + len(a.TextSurface) + len(a.TableKey) + len(a.AggName))
	}
	return n
}
