package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTornTailThenAppend is the crash-restart regression: a crash leaves a
// torn final line, the restarted store acknowledges a new page, and the
// next restart must replay every acknowledged document. Appending straight
// after the fragment would glue the new page's first record to it, and the
// next replay would skip the glued line.
func TestTornTailThenAppend(t *testing.T) {
	docs, als := alignedCorpus(t, 7, 4)
	groups := groupByPage(docs, als)
	if len(groups) < 2 {
		t.Fatalf("corpus has %d pages, want at least 2", len(groups))
	}
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	last := groups[len(groups)-1]
	for _, g := range groups[:len(groups)-1] {
		s1.UpsertPage(g.id, g.docs, g.als)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: a fragment with no newline at the end of the log.
	f, err := os.OpenFile(filepath.Join(dir, "corpus.ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"doc","key":"abc123","trunc`)
	f.Close()

	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Counters()["replay_skipped"]; got != 1 {
		t.Errorf("first reopen: replay_skipped = %d, want 1", got)
	}
	s2.UpsertPage(last.id, last.docs, last.als)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	c := s3.Counters()
	if c["replay_skipped"] != 0 {
		t.Errorf("second reopen: replay_skipped = %d, want 0", c["replay_skipped"])
	}
	if c["live_documents"] != int64(len(docs)) {
		t.Errorf("second reopen: live_documents = %d, want %d", c["live_documents"], len(docs))
	}
	for i, d := range docs {
		got, ok := s3.Alignments(s3.DocumentKey(d))
		if !ok {
			t.Errorf("acknowledged document %s (page %s) did not replay", d.ID, d.PageID)
			continue
		}
		if len(got) != len(als[i]) || (len(got) > 0 && !reflect.DeepEqual(got, als[i])) {
			t.Errorf("document %s replayed %d alignments, want %d", d.ID, len(got), len(als[i]))
		}
	}
}
