package main

import (
	"strings"
	"testing"
)

// FuzzDocRef fuzzes the one parser behind document identity: the
// doc=sha256:<hex> cache reference and the HTTP ETag / If-None-Match
// spellings all go through parseDocRef. The properties that keep the cache
// sound:
//
//   - no panic on any input (the header is attacker-controlled);
//   - any accepted digest is canonical: 64 lowercase hex digits, and
//     re-parsing its own formatted ETag round-trips to the same digest
//     (otherwise equal documents could land under different keys);
//   - acceptance is case-insensitive but the output never is — two
//     spellings of one digest must produce one key;
//   - matchesIfNoneMatch is consistent with parseDocRef: a header matches a
//     digest iff one of its comma-separated elements (or "*") parses to it.
func FuzzDocRef(f *testing.F) {
	valid := hashBytes([]byte("seed document"))
	f.Add(hashScheme + ":" + valid)
	f.Add(`"` + hashScheme + ":" + valid + `"`)
	f.Add("W/\"" + hashScheme + ":" + valid + "\"")
	f.Add(hashScheme + ":" + strings.ToUpper(valid))
	f.Add("  " + hashScheme + ":" + valid + "  ")
	f.Add("*")
	f.Add("")
	f.Add(hashScheme + ":")
	f.Add(hashScheme + ":" + valid[:hashHexLen-1])    // one digit short
	f.Add(hashScheme + ":" + valid + "0")             // one digit long
	f.Add("md5:" + valid)                             // wrong scheme
	f.Add(hashScheme + ":" + strings.Repeat("g", 64)) // non-hex
	f.Add(hashScheme + ":" + strings.Repeat("0", 64) + "," + hashScheme + ":" + valid)
	f.Add("\"unclosed")
	f.Add("W/")
	f.Add("w/\"\"")

	f.Fuzz(func(t *testing.T, s string) {
		hash, ok := parseDocRef(s)
		if !ok {
			if hash != "" {
				t.Fatalf("rejected input %q still produced a digest %q", s, hash)
			}
		} else {
			if len(hash) != hashHexLen {
				t.Fatalf("accepted digest %q has length %d, want %d", hash, len(hash), hashHexLen)
			}
			for i := 0; i < len(hash); i++ {
				c := hash[i]
				if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
					t.Fatalf("accepted digest %q is not canonical lowercase hex", hash)
				}
			}
			// Round-trip: the ETag we would emit for this digest parses back
			// to the same digest, so the upload→reference cycle is stable.
			back, ok2 := parseDocRef(formatETag(hash))
			if !ok2 || back != hash {
				t.Fatalf("formatETag(%q) does not round-trip: got %q, %v", hash, back, ok2)
			}
			// Uppercasing the hex must not change the key (the scheme itself
			// is case-sensitive; only the digits are folded).
			if up, ok3 := parseDocRef(hashScheme + ":" + strings.ToUpper(hash)); !ok3 || up != hash {
				t.Fatalf("uppercase spelling of %q parses to %q/%v, want the same key", hash, up, ok3)
			}
			// A single-element If-None-Match naming this digest matches it.
			if !matchesIfNoneMatch(s, hash) {
				t.Fatalf("If-None-Match %q does not match its own digest %q", s, hash)
			}
		}

		// matchesIfNoneMatch must never panic and must agree with the
		// element-wise definition against an arbitrary reference digest.
		ref := hashBytes([]byte(s))
		got := matchesIfNoneMatch(s, ref)
		want := strings.TrimSpace(s) == "*"
		for _, part := range strings.Split(s, ",") {
			if h, ok := parseDocRef(part); ok && h == ref {
				want = true
			}
		}
		if got != want {
			t.Fatalf("matchesIfNoneMatch(%q, %s) = %v, element-wise reference says %v", s, ref, got, want)
		}
	})
}
