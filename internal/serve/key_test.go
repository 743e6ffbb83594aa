package serve

import "testing"

func TestKeyOfMatchesEngine(t *testing.T) {
	e := NewEngine(Config{Fingerprint: "fp-x", CacheBytes: 1 << 10})
	if got := e.Fingerprint(); got != "fp-x" {
		t.Errorf("Engine.Fingerprint = %q, want fp-x", got)
	}
	if got := (*Engine)(nil).Fingerprint(); got != "" {
		t.Errorf("nil Engine.Fingerprint = %q, want empty", got)
	}
	if got, want := PageKeyOf("fp-x", "p0", "<html>"), e.PageKey("p0", "<html>"); got != want {
		t.Errorf("PageKeyOf = %s, Engine.PageKey = %s", got, want)
	}
	if PageKeyOf("fp-x", "p0", "<html>") == PageKeyOf("fp-y", "p0", "<html>") {
		t.Error("different fingerprints must not collide")
	}
	var text, tables PartDigest
	if DocKeyOf("fp-x", "d", "p", text, tables) == DocKeyOf("fp-y", "d", "p", text, tables) {
		t.Error("different fingerprints must not collide")
	}
	// Length prefixes keep the ID/page boundary.
	if DocKeyOf("fp", "ab", "c", text, tables) == DocKeyOf("fp", "a", "bc", text, tables) {
		t.Error("moving the document/page ID boundary must change the key")
	}
	tables[0] = 1
	if DocKeyOf("fp", "d", "p", text, tables) == DocKeyOf("fp", "d", "p", tables, text) {
		t.Error("swapping the part digests must change the key")
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	k := PageKeyOf("fp", "p", "html")
	got, err := ParseKey(k.String())
	if err != nil || got != k {
		t.Fatalf("ParseKey(%s) = %v, %v", k, got, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Error("want error for bad hex")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Error("want error for short key")
	}
}
