package stringmatch

// cwNode is a node of the trie over the reversed patterns.
type cwNode struct {
	children map[byte]*cwNode
	depth    int
	// terminal is the index of the pattern whose reversal ends at this
	// node, or -1.
	terminal int
}

func newCWNode(depth int) *cwNode {
	return &cwNode{children: make(map[byte]*cwNode), depth: depth, terminal: -1}
}

// CommentzWalter implements Boyer-Moore-style multi-keyword matching in the
// spirit of the Commentz-Walter algorithm: the text is scanned with a window
// of length wmin (the shortest pattern length), the window is verified from
// right to left against a trie of the reversed patterns, and on a mismatch
// the window is shifted by a distance derived from a bad-character function,
// capped so that no occurrence can be skipped.
//
// The SMP runtime engine uses it for every automaton state whose frontier
// vocabulary contains more than one keyword (paper Section II, "(CW)" in
// Fig. 4).
type CommentzWalter struct {
	patterns [][]byte
	root     *cwNode
	wmin     int
	// minDist[c] is the minimum distance from the right end of any pattern
	// at which byte c occurs (the last character of a pattern has distance
	// 0); wmin+1 if c does not occur at all.
	minDist [256]int
}

// NewCommentzWalter returns a Commentz-Walter matcher for the given keyword
// set. The set must be non-empty and all keywords must be non-empty.
func NewCommentzWalter(patterns [][]byte) *CommentzWalter {
	if len(patterns) == 0 {
		panic("stringmatch: empty pattern set")
	}
	cw := &CommentzWalter{root: newCWNode(0)}
	cw.patterns = make([][]byte, len(patterns))
	cw.wmin = 1 << 30
	for i, p := range patterns {
		if len(p) == 0 {
			panic("stringmatch: empty pattern")
		}
		cw.patterns[i] = append([]byte(nil), p...)
		if len(p) < cw.wmin {
			cw.wmin = len(p)
		}
	}
	for i := range cw.minDist {
		cw.minDist[i] = cw.wmin + 1
	}
	for idx, p := range cw.patterns {
		// Insert the reversed pattern into the trie.
		node := cw.root
		for j := len(p) - 1; j >= 0; j-- {
			c := p[j]
			child, ok := node.children[c]
			if !ok {
				child = newCWNode(node.depth + 1)
				node.children[c] = child
			}
			node = child
			dist := len(p) - 1 - j
			if dist >= 1 && dist < cw.minDist[c] {
				cw.minDist[c] = dist
			}
		}
		node.terminal = idx
	}
	return cw
}

// Patterns returns the keyword set.
func (cw *CommentzWalter) Patterns() [][]byte { return cw.patterns }

// MinLength returns the length of the shortest keyword (the window size).
func (cw *CommentzWalter) MinLength() int { return cw.wmin }

// Next returns the start index and pattern index of the occurrence with the
// smallest end position at or after start; ties on the end position are
// broken in favour of the longest pattern. It returns (-1, -1) if no keyword
// occurs.
func (cw *CommentzWalter) Next(text []byte, start int, c *Counters) (int, int) {
	if start < 0 {
		start = 0
	}
	n := len(text)
	// e is the window end position (inclusive).
	e := start + cw.wmin - 1
	for e < n {
		c.window()
		// Scan backwards from e through the trie of reversed patterns.
		node := cw.root
		j := 0 // number of characters matched so far
		bestPat := -1
		for e-j >= start {
			ch := text[e-j]
			c.compare(1)
			child, ok := node.children[ch]
			if !ok {
				break
			}
			node = child
			j++
			if node.terminal >= 0 {
				// A pattern of length j ends at e. Keep scanning: a longer
				// pattern may also end here, and ties go to the longest.
				bestPat = node.terminal
			}
		}
		if bestPat >= 0 {
			return e - len(cw.patterns[bestPat]) + 1, bestPat
		}
		shift := cw.shiftFor(text, e, j)
		c.shift(int64(shift))
		e += shift
	}
	return -1, -1
}

// shiftFor computes a safe window shift after j characters were matched
// backwards from window end e and the character text[e-j] (if any) stopped
// the scan.
//
// Safety argument: consider any occurrence of a pattern p (length m) that
// ends at a position e' > e.
//
//   - If the occurrence covers position e-j, then text[e-j] occurs in p at
//     distance e'-(e-j) from its right end, so e'-e >= minDist(text[e-j])-j.
//   - If it does not cover position e-j, then e'-m+1 > e-j, hence
//     e'-e > m-1-j >= wmin-1-j, i.e. e'-e >= wmin-j.
//
// Therefore shifting by min(minDist(c)-j, wmin-j) (at least 1) never skips
// an occurrence.
func (cw *CommentzWalter) shiftFor(text []byte, e, j int) int {
	capShift := cw.wmin - j
	if capShift < 1 {
		capShift = 1
	}
	if e-j < 0 {
		return capShift
	}
	c := text[e-j]
	d := cw.minDist[c] - j
	if d < 1 {
		d = 1
	}
	return minInt(d, capShift)
}

// SetHorspool is the Horspool simplification of Commentz-Walter: the shift
// is determined solely by the text character aligned with the window end,
// regardless of how many characters were matched. Provided for ablation
// experiments.
type SetHorspool struct {
	patterns [][]byte
	root     *cwNode
	wmin     int
	shiftTab [256]int
}

// NewSetHorspool returns a Set-Horspool matcher for the given keyword set.
func NewSetHorspool(patterns [][]byte) *SetHorspool {
	if len(patterns) == 0 {
		panic("stringmatch: empty pattern set")
	}
	sh := &SetHorspool{root: newCWNode(0)}
	sh.patterns = make([][]byte, len(patterns))
	sh.wmin = 1 << 30
	for i, p := range patterns {
		if len(p) == 0 {
			panic("stringmatch: empty pattern")
		}
		sh.patterns[i] = append([]byte(nil), p...)
		if len(p) < sh.wmin {
			sh.wmin = len(p)
		}
	}
	for i := range sh.shiftTab {
		sh.shiftTab[i] = sh.wmin
	}
	for idx, p := range sh.patterns {
		node := sh.root
		for j := len(p) - 1; j >= 0; j-- {
			c := p[j]
			child, ok := node.children[c]
			if !ok {
				child = newCWNode(node.depth + 1)
				node.children[c] = child
			}
			node = child
			dist := len(p) - 1 - j
			if dist >= 1 && dist <= sh.wmin-1 && dist < sh.shiftTab[c] {
				sh.shiftTab[c] = dist
			}
		}
		node.terminal = idx
	}
	return sh
}

// Patterns returns the keyword set.
func (sh *SetHorspool) Patterns() [][]byte { return sh.patterns }

// Next returns the start index and pattern index of the occurrence with the
// smallest end position at or after start; ties on the end position are
// broken in favour of the longest pattern.
func (sh *SetHorspool) Next(text []byte, start int, c *Counters) (int, int) {
	if start < 0 {
		start = 0
	}
	n := len(text)
	e := start + sh.wmin - 1
	for e < n {
		c.window()
		node := sh.root
		j := 0
		bestPat := -1
		for e-j >= start {
			ch := text[e-j]
			c.compare(1)
			child, ok := node.children[ch]
			if !ok {
				break
			}
			node = child
			j++
			if node.terminal >= 0 {
				bestPat = node.terminal
			}
		}
		if bestPat >= 0 {
			return e - len(sh.patterns[bestPat]) + 1, bestPat
		}
		shift := sh.shiftTab[text[e]]
		c.shift(int64(shift))
		e += shift
	}
	return -1, -1
}
