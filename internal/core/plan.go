package core

import (
	"sort"

	"smp/internal/compile"
	"smp/internal/stringmatch"
)

// Plan is the immutable execution plan of one compiled prefilter: the
// runtime automaton (tables A, V, J, T) together with everything the runtime
// scan needs that is a pure function of (DTD, paths, algorithm options) —
// the string-matcher tables of every state, the interned tag serializations,
// the per-state vocabulary orders and the keyword length bounds.
//
// The paper frames prefiltering as a static analysis followed by a cheap
// runtime scan; the Plan is the static half materialized. It is built once
// (by NewPlan, called from New/smp.Compile) and never mutated afterwards, so
// any number of engines — pooled inside one Prefilter, spread across corpus
// workers, or cached by a service — can share a single Plan without
// duplicating a byte of table memory. Per-run state (the streaming window,
// the copy region, the instrumentation counters) lives in the engine.
type Plan struct {
	table *compile.Table
	opts  Options

	// single and multi hold the matcher of each state, indexed by state ID
	// (exactly one of the two is non-nil for states with a vocabulary).
	single []stringmatch.Matcher
	multi  []stringmatch.MultiMatcher
	// vocabOrder[q] lists state q's vocabulary indices sorted by descending
	// keyword length (verifyAt consults this order on every candidate).
	vocabOrder [][]int
	// minKw and maxKw are the keyword length bounds of each state's
	// vocabulary.
	minKw, maxKw []int
	// stateTags holds the interned tag serializations indexed by the ID of
	// the state a tag enters (states entered by the same label share one
	// instance), so the output path is a slice index, not a map lookup.
	stateTags []*tagStrings

	stats PlanStats
}

// PlanStats reports the size and footprint of a compiled Plan, i.e. of
// everything that is shared between engines rather than allocated per run.
type PlanStats struct {
	// States is the number of runtime-automaton states.
	States int
	// SingleMatchers and MultiMatchers count the precompiled Boyer-Moore
	// (family) and Commentz-Walter (family) matcher tables.
	SingleMatchers int
	MultiMatchers  int
	// TagStrings is the number of distinct interned tag labels.
	TagStrings int
	// MatcherBytes is the approximate footprint of the matcher tables.
	MatcherBytes int64
	// TableBytes is the approximate footprint of the compiled runtime
	// automaton the plan retains (transitions, vocabularies, diagnostics).
	TableBytes int64
	// MemBytes is the approximate total footprint of the plan: the
	// automaton, the matcher tables, the interned tag strings and the
	// per-state order slices — everything a cache entry pins per compiled
	// prefilter.
	MemBytes int64
}

// tagStrings are the synthesized serializations of one tagname, as strings
// and as byte slices (the pipeline writes the slices: an io.Writer without
// WriteString would otherwise copy every synthesized tag).
type tagStrings struct {
	open, close, bachelor    string
	openB, closeB, bachelorB []byte
}

// NewPlan precompiles the immutable execution plan for a runtime automaton:
// it builds the matcher of every state, interns the tag strings and derives
// the vocabulary orders, so no engine ever constructs tables on the project
// path. opts.ChunkSize is normalized here, making the plan's Options final.
func NewPlan(table *compile.Table, opts Options) *Plan {
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = DefaultChunkSize
	}
	n := len(table.States)
	p := &Plan{
		table:      table,
		opts:       opts,
		single:     make([]stringmatch.Matcher, n),
		multi:      make([]stringmatch.MultiMatcher, n),
		vocabOrder: make([][]int, n),
		minKw:      make([]int, n),
		maxKw:      make([]int, n),
		stateTags:  make([]*tagStrings, n),
	}
	// tags interns one tagStrings per label during construction only; the
	// plan itself keeps just the per-state slice.
	tags := make(map[string]*tagStrings)
	for _, st := range table.States {
		q := st.ID
		p.minKw[q], p.maxKw[q] = keywordLengths(st)
		switch {
		case len(st.Vocabulary) == 1:
			p.single[q] = newSingleMatcher(opts.Single, []byte(st.Vocabulary[0].Keyword))
			p.stats.SingleMatchers++
			p.stats.MatcherBytes += p.single[q].MemSize()
		case len(st.Vocabulary) > 1:
			patterns := make([][]byte, len(st.Vocabulary))
			for i, k := range st.Vocabulary {
				patterns[i] = []byte(k.Keyword)
			}
			p.multi[q] = newMultiMatcher(opts.Multi, patterns)
			p.stats.MultiMatchers++
			p.stats.MatcherBytes += p.multi[q].MemSize()
		}
		p.vocabOrder[q] = vocabularyByLength(st)
		if st.Label != "" {
			t, ok := tags[st.Label]
			if !ok {
				t = &tagStrings{
					open:     "<" + st.Label + ">",
					close:    "</" + st.Label + ">",
					bachelor: "<" + st.Label + "/>",
				}
				t.openB, t.closeB, t.bachelorB = []byte(t.open), []byte(t.close), []byte(t.bachelor)
				tags[st.Label] = t
			}
			p.stateTags[q] = t
		}
	}
	p.stats.States = n
	p.stats.TagStrings = len(tags)
	p.stats.TableBytes = tableSize(table)
	p.stats.MemBytes = p.stats.MatcherBytes + p.stats.TableBytes
	for label := range tags {
		// open + close + bachelor serializations, as strings and as byte
		// slices: 3 labels plus 7 brackets each.
		p.stats.MemBytes += 2 * int64(3*len(label)+7)
	}
	for q := range p.vocabOrder {
		p.stats.MemBytes += int64(8 * len(p.vocabOrder[q]))
	}
	return p
}

// tableSize estimates the memory retained by the compiled runtime automaton
// itself — the part of a prefilter's footprint that exists before any
// matcher is built. Cache implementations that weigh entries must count it:
// for large DTDs the transition maps and diagnostic branches dominate.
func tableSize(table *compile.Table) int64 {
	var size int64
	for _, st := range table.States {
		size += 96 // fixed-size State fields, approximate
		for _, kw := range st.Vocabulary {
			size += int64(len(kw.Keyword) + len(kw.Token.Name) + 2*16)
		}
		for tok := range st.Transitions {
			size += int64(len(tok.Name)) + 2*16 // key + value entry, approximate
		}
		size += int64(8 * len(st.NFAStates))
		for _, b := range st.Branch {
			size += int64(len(b)) + 16
		}
	}
	return size
}

// tag returns the interned serializations of the tag entering a state.
// Every labelled state gets its strings at plan build time, so the output
// path is a slice index, not a map lookup.
func (p *Plan) tag(st *compile.State) *tagStrings {
	return p.stateTags[st.ID]
}

// TagStrings returns the interned serializations of the tag entering a
// state, for callers outside the engine (the split stitcher synthesizes the
// same output tags the serial engine would). The strings are empty for the
// unlabelled initial state, which no tag action ever targets.
func (p *Plan) TagStrings(st *compile.State) (open, close, bachelor string) {
	t := p.stateTags[st.ID]
	if t == nil {
		return "", "", ""
	}
	return t.open, t.close, t.bachelor
}

// TagBytes is TagStrings as byte slices, for writers without WriteString.
// The slices are shared read-only state of the plan: an io.Writer may not
// modify or retain them (the io.Writer contract), and callers must not
// either.
func (p *Plan) TagBytes(st *compile.State) (open, close, bachelor []byte) {
	t := p.stateTags[st.ID]
	if t == nil {
		return nil, nil, nil
	}
	return t.openB, t.closeB, t.bachelorB
}

// Table returns the compiled runtime automaton the plan executes.
func (p *Plan) Table() *compile.Table { return p.table }

// Options returns the normalized runtime options the plan was built with.
func (p *Plan) Options() Options { return p.opts }

// Stats returns the plan's size and footprint counters.
func (p *Plan) Stats() PlanStats { return p.stats }

// MatcherCount returns the number of precompiled matcher tables.
func (p *Plan) MatcherCount() int { return p.stats.SingleMatchers + p.stats.MultiMatchers }

// newSingleMatcher constructs the configured single-keyword matcher.
func newSingleMatcher(alg SingleAlgorithm, pattern []byte) stringmatch.Matcher {
	switch alg {
	case SingleHorspool:
		return stringmatch.NewHorspool(pattern)
	case SingleNaive:
		return stringmatch.NewNaive(pattern)
	default:
		return stringmatch.NewBoyerMoore(pattern)
	}
}

// newMultiMatcher constructs the configured multi-keyword matcher.
func newMultiMatcher(alg MultiAlgorithm, patterns [][]byte) stringmatch.MultiMatcher {
	switch alg {
	case MultiAhoCorasick:
		return stringmatch.NewAhoCorasick(patterns)
	case MultiSetHorspool:
		return stringmatch.NewSetHorspool(patterns)
	case MultiNaive:
		return stringmatch.NewNaiveMulti(patterns)
	default:
		return stringmatch.NewCommentzWalter(patterns)
	}
}

// keywordLengths returns the minimum and maximum keyword length of a state's
// vocabulary.
func keywordLengths(st *compile.State) (min, max int) {
	min, max = 1<<30, 0
	for _, k := range st.Vocabulary {
		if len(k.Keyword) < min {
			min = len(k.Keyword)
		}
		if len(k.Keyword) > max {
			max = len(k.Keyword)
		}
	}
	if max == 0 {
		min = 0
	}
	return min, max
}

// vocabularyByLength returns the vocabulary indices of a state sorted by
// descending keyword length (longest first, for prefix disambiguation).
func vocabularyByLength(st *compile.State) []int {
	order := make([]int, len(st.Vocabulary))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(st.Vocabulary[order[a]].Keyword) > len(st.Vocabulary[order[b]].Keyword)
	})
	return order
}
