package stringmatch

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceIndex is the trusted oracle for single-pattern search.
func referenceIndex(text, pattern []byte, start int) int {
	if start < 0 {
		start = 0
	}
	if start > len(text) {
		return -1
	}
	idx := bytes.Index(text[start:], pattern)
	if idx < 0 {
		return -1
	}
	return start + idx
}

func singleMatchers(pattern []byte) map[string]Matcher {
	return map[string]Matcher{
		"naive":      NewNaive(pattern),
		"boyermoore": NewBoyerMoore(pattern),
		"horspool":   NewHorspool(pattern),
	}
}

func multiMatchers(patterns [][]byte) map[string]MultiMatcher {
	return map[string]MultiMatcher{
		"naive-multi":     NewNaiveMulti(patterns),
		"commentz-walter": NewCommentzWalter(patterns),
		"set-horspool":    NewSetHorspool(patterns),
		"aho-corasick":    NewAhoCorasick(patterns),
	}
}

func TestSingleMatchersBasic(t *testing.T) {
	cases := []struct {
		text, pattern string
		want          int
	}{
		{"", "a", -1},
		{"a", "a", 0},
		{"ba", "a", 1},
		{"hello world", "world", 6},
		{"hello world", "worlds", -1},
		{"aaaaaa", "aaa", 0},
		{"abcabcabd", "abcabd", 3},
		{"the ICDE conference at ICDE", "ICDE", 4},
		{"<site><regions><africa>", "<africa", 15},
		{"<description>x</description>", "</description", 14},
		{"mississippi", "issip", 4},
		{"mississippi", "ppi", 8},
		{"GCATCGCAGAGAGTATACAGTACG", "GCAGAGAG", 5},
	}
	for _, c := range cases {
		for name, m := range singleMatchers([]byte(c.pattern)) {
			got := m.Next([]byte(c.text), 0, nil)
			if got != c.want {
				t.Errorf("%s: Next(%q, %q, 0) = %d, want %d", name, c.text, c.pattern, got, c.want)
			}
		}
	}
}

func TestSingleMatchersWithStart(t *testing.T) {
	text := []byte("abracadabra abracadabra abracadabra")
	pattern := []byte("abra")
	for name, m := range singleMatchers(pattern) {
		var got []int
		for i := 0; i <= len(text); {
			p := m.Next(text, i, nil)
			if p < 0 {
				break
			}
			got = append(got, p)
			i = p + 1
		}
		want := []int{0, 7, 12, 19, 24, 31}
		if len(got) != len(want) {
			t.Fatalf("%s: occurrences = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: occurrences = %v, want %v", name, got, want)
				break
			}
		}
	}
}

func TestSingleMatchersStartBeyondText(t *testing.T) {
	text := []byte("abcabc")
	for name, m := range singleMatchers([]byte("abc")) {
		if got := m.Next(text, 100, nil); got != -1 {
			t.Errorf("%s: Next past end = %d, want -1", name, got)
		}
		if got := m.Next(text, len(text), nil); got != -1 {
			t.Errorf("%s: Next at end = %d, want -1", name, got)
		}
		if got := m.Next(text, -5, nil); got != 0 {
			t.Errorf("%s: Next with negative start = %d, want 0", name, got)
		}
	}
}

func TestSingleMatchersAgainstReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []byte("abcd<>/")
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(200) + 1
		text := make([]byte, n)
		for i := range text {
			text[i] = alphabet[rng.Intn(len(alphabet))]
		}
		m := rng.Intn(6) + 1
		pattern := make([]byte, m)
		for i := range pattern {
			pattern[i] = alphabet[rng.Intn(len(alphabet))]
		}
		start := rng.Intn(n + 1)
		want := referenceIndex(text, pattern, start)
		for name, matcher := range singleMatchers(pattern) {
			if got := matcher.Next(text, start, nil); got != want {
				t.Fatalf("%s: Next(%q, %q, %d) = %d, want %d", name, text, pattern, start, got, want)
			}
		}
	}
}

func TestSingleMatchersQuickProperty(t *testing.T) {
	// Property: Boyer-Moore and Horspool agree with bytes.Index on
	// arbitrary inputs drawn from a small alphabet.
	f := func(textSeed []byte, patSeed []byte) bool {
		if len(patSeed) == 0 {
			patSeed = []byte{0}
		}
		toAlpha := func(in []byte) []byte {
			out := make([]byte, len(in))
			for i, b := range in {
				out[i] = "ab<>/x"[int(b)%6]
			}
			return out
		}
		text := toAlpha(textSeed)
		pattern := toAlpha(patSeed)
		if len(pattern) > 8 {
			pattern = pattern[:8]
		}
		want := referenceIndex(text, pattern, 0)
		for _, m := range singleMatchers(pattern) {
			if m.Next(text, 0, nil) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceMultiNext implements the documented multi-matcher semantics
// directly: smallest end position, ties to the longest pattern.
func referenceMultiNext(text []byte, patterns [][]byte, start int) (int, int) {
	if start < 0 {
		start = 0
	}
	bestPos, bestPat := -1, -1
	for e := start; e < len(text); e++ {
		for k, p := range patterns {
			i := e - len(p) + 1
			if i < start {
				continue
			}
			if bytes.Equal(text[i:e+1], p) {
				if bestPat < 0 || len(p) > len(patterns[bestPat]) {
					bestPos, bestPat = i, k
				}
			}
		}
		if bestPat >= 0 {
			return bestPos, bestPat
		}
	}
	return -1, -1
}

func TestMultiMatchersBasic(t *testing.T) {
	patterns := [][]byte{[]byte("<b"), []byte("<c"), []byte("</a")}
	text := []byte("<a><c><b>text</b></c><b/></a>")
	for name, m := range multiMatchers(patterns) {
		pos, pat := m.Next(text, 0, nil)
		if pos != 3 || !bytes.Equal(patterns[pat], []byte("<c")) {
			t.Errorf("%s: first match = (%d, %d), want (3, <c)", name, pos, pat)
		}
		pos, pat = m.Next(text, 4, nil)
		if pos != 6 || !bytes.Equal(patterns[pat], []byte("<b")) {
			t.Errorf("%s: second match = (%d, %d), want (6, <b)", name, pos, pat)
		}
		pos, pat = m.Next(text, 17, nil)
		if pos != 21 || !bytes.Equal(patterns[pat], []byte("<b")) {
			t.Errorf("%s: third match = (%d, %d), want (21, <b)", name, pos, pat)
		}
		pos, pat = m.Next(text, 24, nil)
		if pos != 25 || !bytes.Equal(patterns[pat], []byte("</a")) {
			t.Errorf("%s: closing match = (%d, %d), want (25, </a)", name, pos, pat)
		}
		pos, _ = m.Next(text, 28, nil)
		if pos != -1 {
			t.Errorf("%s: match past content = %d, want -1", name, pos)
		}
	}
}

func TestMultiMatchersPrefixPatterns(t *testing.T) {
	// Tagnames that are prefixes of each other, as in the Medline DTD
	// (Abstract vs. AbstractText). The longer pattern must win a tie on the
	// end position, and both must be found where they occur.
	patterns := [][]byte{[]byte("<Abstract"), []byte("<AbstractText")}
	text := []byte("<Abstract><AbstractText>words</AbstractText></Abstract>")
	for name, m := range multiMatchers(patterns) {
		pos, pat := m.Next(text, 0, nil)
		if pos != 0 || pat != 0 {
			t.Errorf("%s: first = (%d,%d), want (0,0)", name, pos, pat)
		}
		pos, pat = m.Next(text, 1, nil)
		if pos != 10 {
			t.Errorf("%s: second pos = %d, want 10", name, pos)
		}
		// At position 10 both "<Abstract" and "<AbstractText" start; the
		// shorter one ends earlier, so it is reported first under the
		// smallest-end-position semantics.
		if !bytes.HasPrefix(text[pos:], patterns[pat]) {
			t.Errorf("%s: reported pattern %q does not occur at %d", name, patterns[pat], pos)
		}
	}
}

func TestMultiMatchersSingletonSet(t *testing.T) {
	patterns := [][]byte{[]byte("needle")}
	text := []byte("haystack needle haystack")
	for name, m := range multiMatchers(patterns) {
		pos, pat := m.Next(text, 0, nil)
		if pos != 9 || pat != 0 {
			t.Errorf("%s: (%d, %d), want (9, 0)", name, pos, pat)
		}
	}
}

func TestMultiMatchersAgainstReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte("ab<>/cd")
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(150) + 1
		text := make([]byte, n)
		for i := range text {
			text[i] = alphabet[rng.Intn(len(alphabet))]
		}
		k := rng.Intn(4) + 1
		patterns := make([][]byte, k)
		for pi := range patterns {
			m := rng.Intn(5) + 1
			p := make([]byte, m)
			for i := range p {
				p[i] = alphabet[rng.Intn(len(alphabet))]
			}
			patterns[pi] = p
		}
		start := rng.Intn(n + 1)
		wantPos, wantPat := referenceMultiNext(text, patterns, start)
		for name, m := range multiMatchers(patterns) {
			gotPos, gotPat := m.Next(text, start, nil)
			if gotPos != wantPos {
				t.Fatalf("%s: Next(%q, %q, %d) pos = %d, want %d",
					name, text, patterns, start, gotPos, wantPos)
			}
			if wantPos >= 0 && len(patterns[gotPat]) != len(patterns[wantPat]) {
				t.Fatalf("%s: Next(%q, %q, %d) pattern = %q, want %q",
					name, text, patterns, start, patterns[gotPat], patterns[wantPat])
			}
		}
	}
}

func TestMultiMatchersDuplicateAndNestedPatterns(t *testing.T) {
	// Patterns where one is a suffix of another exercise the reversed-trie
	// output propagation in Aho-Corasick and the terminal bookkeeping in
	// Commentz-Walter.
	patterns := [][]byte{[]byte("ription"), []byte("description"), []byte("ion")}
	text := []byte("the description field")
	wantPos, wantPat := referenceMultiNext(text, patterns, 0)
	for name, m := range multiMatchers(patterns) {
		gotPos, gotPat := m.Next(text, 0, nil)
		if gotPos != wantPos || len(patterns[gotPat]) != len(patterns[wantPat]) {
			t.Errorf("%s: (%d, %q), want (%d, %q)", name, gotPos, patterns[gotPat], wantPos, patterns[wantPat])
		}
	}
}

func TestFindAllHelpers(t *testing.T) {
	bm := NewBoyerMoore([]byte("ana"))
	positions := FindAll(bm, []byte("banana"))
	if len(positions) != 2 || positions[0] != 1 || positions[1] != 3 {
		t.Errorf("FindAll = %v, want [1 3]", positions)
	}
	if c := Count(NewBoyerMoore([]byte("ana")), []byte("banana")); c != 2 {
		t.Errorf("Count = %d, want 2", c)
	}
	cw := NewCommentzWalter([][]byte{[]byte("an"), []byte("na")})
	matches := FindAllMulti(cw, []byte("banana"))
	if len(matches) != 4 {
		t.Errorf("FindAllMulti = %v, want 4 matches", matches)
	}
}

func TestEmptyPatternPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on empty pattern", name)
			}
		}()
		f()
	}
	assertPanics("naive", func() { NewNaive(nil) })
	assertPanics("boyermoore", func() { NewBoyerMoore(nil) })
	assertPanics("horspool", func() { NewHorspool(nil) })
	assertPanics("commentz-walter", func() { NewCommentzWalter(nil) })
	assertPanics("commentz-walter-empty-member", func() { NewCommentzWalter([][]byte{{}}) })
	assertPanics("set-horspool", func() { NewSetHorspool(nil) })
	assertPanics("aho-corasick", func() { NewAhoCorasick(nil) })
	assertPanics("naive-multi", func() { NewNaiveMulti(nil) })
}

func TestPatternsAreCopied(t *testing.T) {
	p := []byte("abc")
	bm := NewBoyerMoore(p)
	p[0] = 'x'
	if !bytes.Equal(bm.Pattern(), []byte("abc")) {
		t.Errorf("BoyerMoore did not copy its pattern: %q", bm.Pattern())
	}
	ps := [][]byte{[]byte("ab"), []byte("cd")}
	cw := NewCommentzWalter(ps)
	ps[0][0] = 'z'
	if !bytes.Equal(cw.Patterns()[0], []byte("ab")) {
		t.Errorf("CommentzWalter did not copy its patterns: %q", cw.Patterns()[0])
	}
}
