package stringmatch

// Naive is the straightforward quadratic single-keyword matcher. It is the
// reference oracle for the other implementations and a baseline in the
// ablation experiments.
type Naive struct {
	pattern []byte
}

// NewNaive returns a naive matcher for pattern. The pattern must not be
// empty.
func NewNaive(pattern []byte) *Naive {
	if len(pattern) == 0 {
		panic("stringmatch: empty pattern")
	}
	return &Naive{pattern: append([]byte(nil), pattern...)}
}

// Pattern returns the keyword this matcher searches for.
func (n *Naive) Pattern() []byte { return n.pattern }

// Next returns the start of the leftmost occurrence at or after start, or -1.
func (n *Naive) Next(text []byte, start int, c *Counters) int {
	m := len(n.pattern)
	if start < 0 {
		start = 0
	}
	for i := start; i+m <= len(text); i++ {
		c.window()
		j := 0
		for j < m {
			c.compare(1)
			if text[i+j] != n.pattern[j] {
				break
			}
			j++
		}
		if j == m {
			return i
		}
		c.shift(1)
	}
	return -1
}

// NaiveMulti is the quadratic multi-keyword reference matcher with the same
// occurrence semantics as CommentzWalter and AhoCorasick: it reports the
// occurrence with the smallest end position, breaking ties in favour of the
// longest pattern.
type NaiveMulti struct {
	patterns [][]byte
}

// NewNaiveMulti returns a naive multi-keyword matcher. The pattern set must
// be non-empty and all patterns must be non-empty.
func NewNaiveMulti(patterns [][]byte) *NaiveMulti {
	if len(patterns) == 0 {
		panic("stringmatch: empty pattern set")
	}
	cp := make([][]byte, len(patterns))
	for i, p := range patterns {
		if len(p) == 0 {
			panic("stringmatch: empty pattern")
		}
		cp[i] = append([]byte(nil), p...)
	}
	return &NaiveMulti{patterns: cp}
}

// Patterns returns the keyword set.
func (n *NaiveMulti) Patterns() [][]byte { return n.patterns }

// Next returns the occurrence with the smallest end position at or after
// start; ties are broken in favour of the longest pattern.
func (n *NaiveMulti) Next(text []byte, start int, c *Counters) (int, int) {
	if start < 0 {
		start = 0
	}
	bestEnd, bestPat, bestPos := -1, -1, -1
	for e := start; e < len(text); e++ {
		for k, p := range n.patterns {
			m := len(p)
			i := e - m + 1
			if i < start || i < 0 {
				continue
			}
			c.window()
			j := 0
			for j < m {
				c.compare(1)
				if text[i+j] != p[j] {
					break
				}
				j++
			}
			if j == m {
				if bestEnd < 0 || m > len(n.patterns[bestPat]) {
					bestEnd, bestPat, bestPos = e, k, i
				}
			}
		}
		if bestEnd >= 0 {
			return bestPos, bestPat
		}
	}
	return -1, -1
}
