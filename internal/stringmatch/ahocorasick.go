package stringmatch

// AhoCorasick implements the classic Aho-Corasick multi-keyword automaton.
// It inspects every character of the text exactly once and therefore cannot
// skip input; the paper argues (related work, ref [21]) that prefiltering
// built on this family of matchers is inherently slower than the
// Boyer-Moore/Commentz-Walter approach. It is included as the baseline for
// the ablation experiments.
type AhoCorasick struct {
	patterns [][]byte
	goto_    []map[byte]int
	fail     []int
	// out[s] is the list of pattern indices that end at state s.
	out [][]int
}

// NewAhoCorasick builds the Aho-Corasick automaton for the given keyword
// set. The set must be non-empty and all keywords must be non-empty.
func NewAhoCorasick(patterns [][]byte) *AhoCorasick {
	if len(patterns) == 0 {
		panic("stringmatch: empty pattern set")
	}
	ac := &AhoCorasick{}
	ac.patterns = make([][]byte, len(patterns))
	ac.goto_ = []map[byte]int{make(map[byte]int)}
	ac.fail = []int{0}
	ac.out = [][]int{nil}

	for i, p := range patterns {
		if len(p) == 0 {
			panic("stringmatch: empty pattern")
		}
		ac.patterns[i] = append([]byte(nil), p...)
		state := 0
		for _, c := range ac.patterns[i] {
			next, ok := ac.goto_[state][c]
			if !ok {
				next = len(ac.goto_)
				ac.goto_ = append(ac.goto_, make(map[byte]int))
				ac.fail = append(ac.fail, 0)
				ac.out = append(ac.out, nil)
				ac.goto_[state][c] = next
			}
			state = next
		}
		ac.out[state] = append(ac.out[state], i)
	}

	// BFS to compute failure links and propagate outputs.
	queue := make([]int, 0, len(ac.goto_))
	for _, s := range ac.goto_[0] {
		ac.fail[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for c, s := range ac.goto_[r] {
			queue = append(queue, s)
			state := ac.fail[r]
			for state != 0 {
				if _, ok := ac.goto_[state][c]; ok {
					break
				}
				state = ac.fail[state]
			}
			if next, ok := ac.goto_[state][c]; ok && next != s {
				ac.fail[s] = next
			} else {
				ac.fail[s] = 0
			}
			ac.out[s] = append(ac.out[s], ac.out[ac.fail[s]]...)
		}
	}
	return ac
}

// Patterns returns the keyword set.
func (ac *AhoCorasick) Patterns() [][]byte { return ac.patterns }

// step advances the automaton from state on character c.
func (ac *AhoCorasick) step(state int, c byte) int {
	for {
		if next, ok := ac.goto_[state][c]; ok {
			return next
		}
		if state == 0 {
			return 0
		}
		state = ac.fail[state]
	}
}

// Next returns the start index and pattern index of the occurrence with the
// smallest end position at or after start; ties on the end position are
// broken in favour of the longest pattern. It returns (-1, -1) if no keyword
// occurs.
func (ac *AhoCorasick) Next(text []byte, start int, c *Counters) (int, int) {
	if start < 0 {
		start = 0
	}
	state := 0
	for i := start; i < len(text); i++ {
		c.compare(1)
		state = ac.step(state, text[i])
		if outs := ac.out[state]; len(outs) > 0 {
			best := -1
			for _, k := range outs {
				// Only occurrences fully contained in text[start:] count.
				if i-len(ac.patterns[k])+1 < start {
					continue
				}
				if best < 0 || len(ac.patterns[k]) > len(ac.patterns[best]) {
					best = k
				}
			}
			if best >= 0 {
				return i - len(ac.patterns[best]) + 1, best
			}
		}
	}
	return -1, -1
}
