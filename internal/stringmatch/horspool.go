package stringmatch

// Horspool implements the Boyer-Moore-Horspool simplification: only the
// bad-character rule is used, keyed on the text character aligned with the
// last pattern position. It is provided for the ablation experiments that
// compare it against the full Boyer-Moore matcher.
type Horspool struct {
	pattern []byte
	shift   [256]int
}

// NewHorspool returns a Horspool matcher for pattern. The pattern must not
// be empty.
func NewHorspool(pattern []byte) *Horspool {
	if len(pattern) == 0 {
		panic("stringmatch: empty pattern")
	}
	h := &Horspool{pattern: append([]byte(nil), pattern...)}
	m := len(h.pattern)
	for i := range h.shift {
		h.shift[i] = m
	}
	for i := 0; i < m-1; i++ {
		h.shift[h.pattern[i]] = m - 1 - i
	}
	return h
}

// Pattern returns the keyword this matcher searches for.
func (h *Horspool) Pattern() []byte { return h.pattern }

// Next returns the start of the leftmost occurrence at or after start, or -1.
func (h *Horspool) Next(text []byte, start int, c *Counters) int {
	if start < 0 {
		start = 0
	}
	m := len(h.pattern)
	n := len(text)
	i := start
	for i+m <= n {
		c.window()
		j := m - 1
		for j >= 0 {
			c.compare(1)
			if h.pattern[j] != text[i+j] {
				break
			}
			j--
		}
		if j < 0 {
			return i
		}
		shift := h.shift[text[i+m-1]]
		c.shift(int64(shift))
		i += shift
	}
	return -1
}
