package stringmatch

// Matcher locates occurrences of a single keyword in a text.
//
// Matchers are immutable after construction: Next never mutates the matcher,
// so a single matcher may be shared by any number of goroutines. Per-run
// instrumentation is recorded into the caller-owned *Counters (which may be
// nil to disable instrumentation).
type Matcher interface {
	// Next returns the start index of the leftmost occurrence of the
	// pattern in text at or after position start, or -1 if there is none.
	// Character comparisons and shifts are recorded into c when non-nil.
	Next(text []byte, start int, c *Counters) int
	// Pattern returns the keyword this matcher searches for.
	Pattern() []byte
}

// MultiMatcher locates occurrences of any keyword from a fixed set. Like
// Matcher, implementations are immutable after construction and safe for
// concurrent use; per-run counters are caller-owned.
type MultiMatcher interface {
	// Next returns the start index and the pattern index of the occurrence
	// with the smallest end position at or after start. Ties on the end
	// position are broken in favour of the longest pattern. It returns
	// (-1, -1) if no keyword occurs. Character comparisons and shifts are
	// recorded into c when non-nil.
	Next(text []byte, start int, c *Counters) (pos, pattern int)
	// Patterns returns the keyword set.
	Patterns() [][]byte
}

// Match is one occurrence reported by FindAll or FindAllMulti.
type Match struct {
	Pos     int // start index of the occurrence
	Pattern int // index of the matched pattern (0 for single-keyword matchers)
}

// FindAll returns the start positions of all (possibly overlapping)
// occurrences of m's pattern in text.
func FindAll(m Matcher, text []byte) []int {
	var out []int
	for i := 0; i <= len(text); {
		p := m.Next(text, i, nil)
		if p < 0 {
			break
		}
		out = append(out, p)
		i = p + 1
	}
	return out
}

// FindAllMulti returns all occurrences of m's patterns in text, ordered by
// end position (ties: longest pattern first). Occurrences sharing the same
// end position but shorter than the reported one are not repeated.
func FindAllMulti(m MultiMatcher, text []byte) []Match {
	var out []Match
	for i := 0; i <= len(text); {
		p, k := m.Next(text, i, nil)
		if p < 0 {
			break
		}
		out = append(out, Match{Pos: p, Pattern: k})
		// Resume just after the start of the reported occurrence so that
		// later, overlapping occurrences are still found.
		i = p + 1
	}
	return out
}

// Count returns the number of occurrences of m's pattern in text.
func Count(m Matcher, text []byte) int { return len(FindAll(m, text)) }

// minInt returns the smaller of a and b.
func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// maxInt returns the larger of a and b.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
