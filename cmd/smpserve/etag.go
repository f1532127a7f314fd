package main

import "strings"

// Document identity is a content hash: sha256 over the document bytes,
// spelled "sha256:<64 lowercase hex digits>". The same spelling serves as
// the doc= reference into the document cache and — quoted, possibly weak —
// as the HTTP ETag of an uploaded document and in If-None-Match.
// parseDocRef is the one parser for all of them; it is deliberately strict
// (exact length, lowercase canonical form out) because its output keys the
// cache.

const (
	hashScheme = "sha256"
	hashHexLen = 64 // sha256 → 32 bytes → 64 hex digits
)

// parseDocRef parses a document reference — "sha256:<hex>", optionally
// surrounded by ETag quotes and/or a weak-validator prefix (W/"...") — and
// returns the canonical lowercase hex digest. It accepts uppercase hex on
// input but never emits it: equal digests always produce equal keys.
func parseDocRef(s string) (string, bool) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "W/") || strings.HasPrefix(s, "w/") {
		s = s[2:]
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	rest, ok := strings.CutPrefix(s, hashScheme+":")
	if !ok || len(rest) != hashHexLen {
		return "", false
	}
	out := make([]byte, hashHexLen)
	for i := 0; i < hashHexLen; i++ {
		c := rest[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
			out[i] = c
		case c >= 'A' && c <= 'F':
			out[i] = c + ('a' - 'A')
		default:
			return "", false
		}
	}
	return string(out), true
}

// formatETag renders a canonical digest as the quoted HTTP ETag the
// /documents endpoints emit.
func formatETag(hash string) string {
	return `"` + hashScheme + ":" + hash + `"`
}

// matchesIfNoneMatch reports whether an If-None-Match header value matches
// the given canonical digest: either the wildcard "*" or any element of the
// comma-separated entity-tag list parsing to the same digest. Malformed
// elements never match — a garbled header degrades to a plain upload, never
// to a false cache hit.
func matchesIfNoneMatch(header, hash string) bool {
	header = strings.TrimSpace(header)
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if h, ok := parseDocRef(part); ok && h == hash {
			return true
		}
	}
	return false
}
