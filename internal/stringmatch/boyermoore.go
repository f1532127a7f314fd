package stringmatch

// BoyerMoore implements the full Boyer-Moore algorithm with both the
// bad-character and the good-suffix rule. The SMP runtime engine uses it for
// every automaton state whose frontier vocabulary contains exactly one
// keyword (paper Section II, "(BM)" in Fig. 4). The tables are immutable
// after construction, so one matcher can serve any number of concurrent runs.
type BoyerMoore struct {
	pattern    []byte
	badChar    [256]int // rightmost position of each byte in the pattern
	goodSuffix []int
}

// NewBoyerMoore returns a Boyer-Moore matcher for pattern. The pattern must
// not be empty.
func NewBoyerMoore(pattern []byte) *BoyerMoore {
	if len(pattern) == 0 {
		panic("stringmatch: empty pattern")
	}
	bm := &BoyerMoore{pattern: append([]byte(nil), pattern...)}
	bm.buildBadChar()
	bm.buildGoodSuffix()
	return bm
}

func (b *BoyerMoore) buildBadChar() {
	for i := range b.badChar {
		b.badChar[i] = -1
	}
	for i, c := range b.pattern {
		b.badChar[c] = i
	}
}

// buildGoodSuffix computes the classic good-suffix shift table using the
// strong good-suffix rule (case 1: another occurrence of the suffix preceded
// by a different character; case 2: a prefix of the pattern matches a suffix
// of the matched suffix).
func (b *BoyerMoore) buildGoodSuffix() {
	m := len(b.pattern)
	b.goodSuffix = make([]int, m+1)
	border := make([]int, m+1)

	// Case 1 preprocessing.
	i, j := m, m+1
	border[i] = j
	for i > 0 {
		for j <= m && b.pattern[i-1] != b.pattern[j-1] {
			if b.goodSuffix[j] == 0 {
				b.goodSuffix[j] = j - i
			}
			j = border[j]
		}
		i--
		j--
		border[i] = j
	}

	// Case 2 preprocessing.
	j = border[0]
	for i = 0; i <= m; i++ {
		if b.goodSuffix[i] == 0 {
			b.goodSuffix[i] = j
		}
		if i == j {
			j = border[j]
		}
	}
}

// Pattern returns the keyword this matcher searches for.
func (b *BoyerMoore) Pattern() []byte { return b.pattern }

// Next returns the start of the leftmost occurrence at or after start, or -1.
func (b *BoyerMoore) Next(text []byte, start int, c *Counters) int {
	if start < 0 {
		start = 0
	}
	m := len(b.pattern)
	n := len(text)
	i := start
	for i+m <= n {
		c.window()
		j := m - 1
		for j >= 0 {
			c.compare(1)
			if b.pattern[j] != text[i+j] {
				break
			}
			j--
		}
		if j < 0 {
			return i
		}
		bcShift := j - b.badChar[text[i+j]]
		gsShift := b.goodSuffix[j+1]
		shift := maxInt(maxInt(bcShift, gsShift), 1)
		c.shift(int64(shift))
		i += shift
	}
	return -1
}
