// Package fig4 is the paper's runtime algorithm (Fig. 4): a skip-based scan
// that searches each state's frontier vocabulary of a core.Plan with
// Boyer-Moore (one keyword) or Commentz-Walter (several) and copies exactly
// the query-relevant parts of the document to the output. It reproduces the
// paper's Tables I/II (internal/experiments) and is the tests' serial
// reference; no product package imports it. Its matcher tables are built
// once by New; the pooled engines hold only per-run state, reading the input
// through a forward-moving window of fixed chunk size, so memory stays
// proportional to the chunk size.
package fig4

import (
	"bytes"
	"context"
	"io"
	"sort"
	"sync"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/glushkov"
	"smp/internal/stringmatch"
)

// SingleAlgorithm selects the string matching algorithm for states whose
// frontier vocabulary contains a single keyword.
type SingleAlgorithm int

// Single-keyword search algorithms.
const (
	// SingleBoyerMoore is the paper's choice (bad character + good suffix).
	SingleBoyerMoore SingleAlgorithm = iota
	// SingleHorspool is the simplified Boyer-Moore-Horspool variant
	// (ablation).
	SingleHorspool
	// SingleNaive compares position by position (ablation baseline).
	SingleNaive
)

// MultiAlgorithm selects the algorithm for multi-keyword frontiers.
type MultiAlgorithm int

// Multi-keyword search algorithms.
const (
	// MultiCommentzWalter is the paper's choice.
	MultiCommentzWalter MultiAlgorithm = iota
	// MultiAhoCorasick inspects every character (the [21]-style alternative;
	// ablation).
	MultiAhoCorasick
	// MultiSetHorspool is the set-Horspool variant (ablation).
	MultiSetHorspool
	// MultiNaive tries every keyword at every position (ablation baseline).
	MultiNaive
)

// Options selects the engine's string matchers.
type Options struct {
	// Single selects the single-keyword search algorithm.
	Single SingleAlgorithm
	// Multi selects the multi-keyword search algorithm.
	Multi MultiAlgorithm
}

// Prefilter executes XML prefiltering for one compiled Plan. It is safe for
// concurrent use by multiple goroutines: all table state lives in the
// immutable shared Plan and the prefilter's search tables, and each run
// borrows a buffer-only engine (window chunk buffer plus counters) from an
// internal sync.Pool, so steady-state runs allocate nothing but what the
// run itself writes.
type Prefilter struct {
	plan   *core.Plan
	search *searchTables
	pool   sync.Pool // of *engine
}

// New builds the string-matcher tables for the plan's automaton and wraps
// both in a prefilter. The tables are built here, once: no matcher
// construction happens on the project path, and every run and goroutine of
// the prefilter shares them. Prefilters built from one plan share its
// automaton and tag strings.
func New(plan *core.Plan, opts Options) *Prefilter {
	p := &Prefilter{plan: plan, search: newSearchTables(plan.Table(), opts)}
	p.pool.New = func() interface{} {
		return &engine{
			plan:   plan,
			table:  plan.Table(),
			search: p.search,
			win:    newWindow(nil, plan.Options().ChunkSize),
		}
	}
	return p
}

// searchTables are the Fig. 4 engine's string-matcher tables, a pure
// function of the automaton and the algorithm options. The production
// pipeline runs an anchored scan instead and never builds them.
type searchTables struct {
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
	// built counts the matcher tables (Stats.MatchersBuilt).
	built int
}

// newSearchTables builds the matcher of every state with a vocabulary and
// derives the vocabulary orders and keyword length bounds.
func newSearchTables(table *compile.Table, opts Options) *searchTables {
	n := len(table.States)
	t := &searchTables{
		single:     make([]stringmatch.Matcher, n),
		multi:      make([]stringmatch.MultiMatcher, n),
		vocabOrder: make([][]int, n),
		minKw:      make([]int, n),
		maxKw:      make([]int, n),
	}
	for _, st := range table.States {
		q := st.ID
		t.minKw[q], t.maxKw[q] = keywordLengths(st)
		t.vocabOrder[q] = vocabularyByLength(st)
		switch {
		case len(st.Vocabulary) == 1:
			t.single[q] = newSingleMatcher(opts.Single, []byte(st.Vocabulary[0].Keyword))
			t.built++
		case len(st.Vocabulary) > 1:
			patterns := make([][]byte, len(st.Vocabulary))
			for i, k := range st.Vocabulary {
				patterns[i] = []byte(k.Keyword)
			}
			t.multi[q] = newMultiMatcher(opts.Multi, patterns)
			t.built++
		}
	}
	return t
}

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

// Plan returns the immutable execution plan the prefilter shares across its
// pooled engines.
func (p *Prefilter) Plan() *core.Plan { return p.plan }

// RunOptions are the per-run overrides of a single projection; the zero
// value keeps the plan's configuration.
type RunOptions struct {
	// ChunkSize overrides the plan's streaming window chunk size for this
	// run only; 0 keeps the plan's value. Pooled engines serve any chunk
	// size — the buffer grows as needed and is reused across runs.
	ChunkSize int
}

// Project prefilters the document read from src, writing the projection to
// dst. It may be called concurrently from multiple goroutines. The context
// is checked at every chunk boundary: a cancelled ctx stops the run before
// its next read and Project returns ctx.Err().
func (p *Prefilter) Project(ctx context.Context, dst io.Writer, src io.Reader) (Stats, error) {
	return p.ProjectWith(ctx, dst, src, RunOptions{})
}

// ProjectWith is Project with per-run overrides. Every reader, files
// included, streams through the engine's window; ProjectBytesWith takes a
// document already in memory.
func (p *Prefilter) ProjectWith(ctx context.Context, dst io.Writer, src io.Reader, opts RunOptions) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	e := p.pool.Get().(*engine)
	e.win.reset(ctx, src, p.chunk(opts))
	return p.run(e, dst)
}

// ProjectBytesWith prefilters an in-memory document zero-copy: the engine
// window aliases doc (which may be a read-only memory mapping) instead of
// copying it chunk by chunk, while chunk-boundary context checks and
// BytesRead accounting stay identical to a streaming run over the same
// bytes. Stats.ZeroCopyInput is set; Stats.MaxBufferBytes stays zero, since
// no private window buffer is held.
func (p *Prefilter) ProjectBytesWith(ctx context.Context, dst io.Writer, doc []byte, opts RunOptions) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	e := p.pool.Get().(*engine)
	e.win.pinTo(ctx, doc, p.chunk(opts))
	stats, err := p.run(e, dst)
	stats.ZeroCopyInput = true
	return stats, err
}

// chunk resolves the window chunk size of one run.
func (p *Prefilter) chunk(opts RunOptions) int {
	if opts.ChunkSize > 0 {
		return opts.ChunkSize
	}
	return p.plan.Options().ChunkSize
}

// run executes one projection on a pooled engine whose window is already
// bound to the input, and returns the engine to the pool. The window chunk
// buffer is the only state carried over between runs — reusing it is what
// makes steady-state runs cheap.
func (p *Prefilter) run(e *engine, dst io.Writer) (Stats, error) {
	e.out = dst
	e.copyActive, e.copyStart = false, 0
	e.match = stringmatch.Counters{}
	e.stats = Stats{}
	e.writeErr = nil
	err := e.run()
	e.finishStats()
	stats := e.stats
	e.release()
	p.pool.Put(e)
	return stats, err
}

// ProjectBytes prefilters an in-memory document and returns the projection.
func (p *Prefilter) ProjectBytes(ctx context.Context, doc []byte) ([]byte, Stats, error) {
	var out bytes.Buffer
	out.Grow(len(doc) / 8)
	stats, err := p.ProjectBytesWith(ctx, &out, doc, RunOptions{})
	return out.Bytes(), stats, err
}

// engine is the per-run state of the runtime algorithm: the streaming
// window, the open copy region and the counters. Everything it looks up —
// matchers, tag strings, vocabulary orders — comes from the shared Plan and
// the prefilter's search tables.
type engine struct {
	plan   *core.Plan
	table  *compile.Table
	search *searchTables
	win    *window
	out    io.Writer

	copyActive bool
	copyStart  int64

	// match accumulates the string matchers' counters for this run; the
	// matchers themselves are immutable and shared.
	match stringmatch.Counters

	stats    Stats
	writeErr error
}

// release drops the references a pooled engine holds into caller-owned
// values, so the pool does not pin a caller's reader, writer or context
// alive.
func (e *engine) release() {
	e.win.unpin()
	e.win.r = nil
	e.win.ctx = context.Background()
	e.out = nil
}

// run executes the algorithm of paper Fig. 4.
func (e *engine) run() error {
	q := e.table.Initial
	cursor := int64(0)

	for {
		st := e.table.State(q)
		if len(st.Vocabulary) == 0 {
			// Nothing left to search for; the state is final by construction.
			break
		}

		// Initial jump (table J).
		if st.Jump > 0 {
			cursor += int64(st.Jump)
			e.stats.InitialJumpBytes += int64(st.Jump)
		}

		// Single- or multi-keyword search for the frontier vocabulary
		// (table V), with verification of the character following the
		// keyword (tagname-prefix disambiguation).
		pos, kwIdx, found, err := e.findNext(q, st, cursor)
		if err != nil {
			return err
		}
		if !found {
			if st.Final {
				break
			}
			return core.EndOfInputError(q, st)
		}
		kw := st.Vocabulary[kwIdx]

		// Scan right for the end of the tag.
		tagEnd, bachelor, err := e.scanTagEnd(pos, len(kw.Keyword))
		if err != nil {
			return err
		}
		if kw.Token.Close {
			bachelor = false
		}

		// Transition (table A) and action (table T), treating a bachelor tag
		// as its opening tag immediately followed by its closing tag.
		if kw.Token.Close {
			next := e.table.Successor(q, kw.Token)
			if next < 0 {
				return core.TransitionError(q, kw.Token)
			}
			e.performClose(e.table.State(next), tagEnd, false)
			q = next
		} else {
			next := e.table.Successor(q, kw.Token)
			if next < 0 {
				return core.TransitionError(q, kw.Token)
			}
			e.performOpen(e.table.State(next), pos, tagEnd, bachelor)
			q = next
			if bachelor {
				closeTok := glushkov.Closing(kw.Token.Name)
				nextClose := e.table.Successor(q, closeTok)
				if nextClose < 0 {
					return core.TransitionError(q, closeTok)
				}
				e.performClose(e.table.State(nextClose), tagEnd, true)
				q = nextClose
			}
		}
		if e.writeErr != nil {
			return e.writeErr
		}
		e.stats.TagsMatched++

		// The cursor points at the '>' of the matched tag; searching resumes
		// after it.
		cursor = tagEnd + 1

		// Release window data that can no longer be needed.
		keep := cursor
		if e.copyActive && e.copyStart < keep {
			keep = e.copyStart
		}
		e.win.compact(keep)
	}
	return e.writeErr
}

// findNext locates the next verified occurrence of any frontier keyword of
// state q at or after the absolute offset from.
func (e *engine) findNext(q int, st *compile.State, from int64) (pos int64, kwIdx int, found bool, err error) {
	minKw, maxKw := e.search.minKw[q], e.search.maxKw[q]
	searchFrom := from
	for {
		if !e.win.ensure(searchFrom + int64(minKw) - 1) {
			// A truncated input is a legitimate end of search (the caller
			// decides whether the state allows it); a failed read is not.
			return 0, 0, false, e.win.readErr
		}
		text := e.win.bytes()
		rel := int(searchFrom - e.win.base)
		if rel < 0 {
			rel = 0
		}

		var p, k int
		if m := e.search.single[q]; m != nil {
			p = m.Next(text, rel, &e.match)
			k = 0
		} else {
			p, k = e.search.multi[q].Next(text, rel, &e.match)
		}
		if p >= 0 {
			abs := e.win.base + int64(p)
			idx, valid, verr := e.verifyAt(q, st, abs, k)
			if verr != nil {
				return 0, 0, false, verr
			}
			if valid {
				return abs, idx, true, nil
			}
			e.stats.RejectedMatches++
			searchFrom = abs + 1
			continue
		}

		// No occurrence within the buffered window. An occurrence could
		// still start within the last maxKw-1 bytes (spanning the boundary),
		// so resume from there after extending the window.
		if e.win.eof {
			return 0, 0, false, e.win.readErr
		}
		resume := e.win.end() - int64(maxKw) + 1
		if resume < searchFrom {
			resume = searchFrom
		}
		// Flush the open copy region up to the resume point so that window
		// memory stays bounded even for huge copied subtrees.
		if e.copyActive && e.copyStart < resume {
			e.writeRaw(e.copyStart, resume)
			e.copyStart = resume
		}
		e.win.compact(resume)
		e.win.more()
		searchFrom = resume
	}
}

// verifyAt checks which frontier keyword actually matches at the given
// position: the keyword bytes must be followed by whitespace, '>' or (for
// opening tags) '/'. Among several matching keywords the longest wins, which
// resolves tagname-prefix collisions such as Abstract/AbstractText.
func (e *engine) verifyAt(q int, st *compile.State, pos int64, reported int) (int, bool, error) {
	for _, idx := range e.search.vocabOrder[q] {
		kw := st.Vocabulary[idx]
		end := pos + int64(len(kw.Keyword))
		if !e.win.ensure(end) {
			continue // the keyword plus its terminator does not fit before EOF
		}
		if idx != reported {
			e.stats.CharComparisons += int64(len(kw.Keyword))
			if !bytes.Equal(e.win.slice(pos, end), []byte(kw.Keyword)) {
				continue
			}
		}
		c := e.win.byteAt(end)
		e.stats.CharComparisons++
		if core.IsTagTerminator(c, kw.Token.Close) {
			return idx, true, nil
		}
	}
	return 0, false, nil
}

// scanTagEnd scans right from the end of the keyword for the closing '>' of
// the tag, honouring quoted attribute values (via the shared TagScan). It
// returns the absolute offset of the '>' and whether the tag is a bachelor
// tag ("/>").
func (e *engine) scanTagEnd(tagStart int64, keywordLen int) (tagEnd int64, bachelor bool, err error) {
	i := tagStart + int64(keywordLen)
	var ts core.TagScan
	for {
		if !e.win.ensure(i) {
			if e.win.readErr != nil {
				return 0, false, e.win.readErr
			}
			return 0, false, core.EOFInsideTagError(tagStart)
		}
		e.stats.CharComparisons++
		done, b := ts.Feed(e.win.byteAt(i))
		if done {
			return i, b, nil
		}
		i++
		if i-tagStart > core.MaxTagLength {
			return 0, false, core.TagTooLongError(tagStart)
		}
	}
}

// performOpen executes the action of the state entered by an opening tag.
func (e *engine) performOpen(st *compile.State, tagStart, tagEnd int64, bachelor bool) {
	switch st.Action {
	case compile.CopySubtree:
		// "copy on": remember where the subtree starts; the matching
		// "copy off" (or the incremental flush) writes the bytes.
		e.copyActive = true
		e.copyStart = tagStart
	case compile.CopyTagAttrs:
		e.writeRaw(tagStart, tagEnd+1)
	case compile.CopyTag:
		open, _, bach := e.plan.TagBytes(st)
		if bachelor {
			e.writeTag(bach)
		} else {
			e.writeTag(open)
		}
	}
}

// performClose executes the action of the state entered by a closing tag.
// For bachelor tags the opening-tag action has already written the complete
// tag, so nothing further is emitted.
func (e *engine) performClose(st *compile.State, tagEnd int64, bachelor bool) {
	switch st.Action {
	case compile.CopySubtree:
		// "copy off": emit everything from the recorded start position up to
		// and including the closing tag.
		if e.copyActive {
			e.writeRaw(e.copyStart, tagEnd+1)
			e.copyActive = false
		} else if !bachelor {
			_, closeTag, _ := e.plan.TagBytes(st)
			e.writeTag(closeTag)
		}
	case compile.CopyTagAttrs, compile.CopyTag:
		if !bachelor {
			_, closeTag, _ := e.plan.TagBytes(st)
			e.writeTag(closeTag)
		}
	}
}

// writeRaw copies the buffered input bytes [from, to) to the output.
func (e *engine) writeRaw(from, to int64) {
	if to > from {
		e.writeTag(e.win.slice(from, to))
	}
}

// writeTag writes bytes to the output: a synthesized tag or a raw region.
func (e *engine) writeTag(b []byte) {
	if e.writeErr != nil {
		return
	}
	n, err := e.out.Write(b)
	e.stats.BytesWritten += int64(n)
	if err != nil {
		e.writeErr = err
	}
}

// finishStats folds the run's matcher counters and the table sizes into
// the run stats.
func (e *engine) finishStats() {
	e.stats.CharComparisons += e.match.Comparisons
	e.stats.Shifts += e.match.Shifts
	e.stats.ShiftTotal += e.match.ShiftTotal
	e.stats.BytesRead = e.win.bytesRead
	e.stats.States = e.table.Stats.States
	e.stats.CWStates = e.table.Stats.CWStates
	e.stats.BMStates = e.table.Stats.BMStates
	e.stats.MatchersBuilt = e.search.built
	e.stats.MaxBufferBytes = int64(e.win.maxBuffer)
}
