package core

import (
	"smp/internal/compile"
)

// DefaultChunkSize is the streaming read granularity: eight times a common
// 4 KiB page, as in the paper's prototype.
const DefaultChunkSize = 8 * 4096

// Options configures a Plan.
type Options struct {
	// ChunkSize is the read granularity in bytes (default
	// DefaultChunkSize).
	ChunkSize int
}

// Plan is the immutable execution plan of one compiled prefilter: the
// runtime automaton (tables A, V, J, T) together with what the production
// path needs that is a pure function of (DTD, paths, options) — the
// interned tag serializations. The Fig. 4 engine's string-matcher tables
// are not part of it: only that engine reads them, so internal/fig4 builds
// and keeps them itself.
//
// The paper frames prefiltering as a static analysis followed by a cheap
// runtime scan; the Plan is the static half materialized. It is built once
// (by NewPlan, called from smp.Compile) and never mutated afterwards, so
// any number of engines — pooled inside one Prefilter, spread across corpus
// workers, or cached by a service — can share a single Plan without
// duplicating a byte of table memory. Per-run state (the streaming window,
// the copy region, the instrumentation counters) lives in the engine.
type Plan struct {
	table *compile.Table
	opts  Options

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
	// TagStrings is the number of distinct interned tag labels.
	TagStrings int
	// TableBytes is the approximate footprint of the compiled runtime
	// automaton the plan retains (transitions, vocabularies, diagnostics).
	TableBytes int64
	// MemBytes is the approximate total footprint of the plan: the
	// automaton and the interned tag strings — everything a cache entry
	// pins per compiled prefilter.
	MemBytes int64
}

// tagStrings are the synthesized serializations of one tagname.
type tagStrings struct {
	open, close, bachelor []byte
}

// NewPlan precompiles the immutable execution plan for a runtime automaton:
// it interns the tag strings, so no engine ever builds one on the project
// path. opts.ChunkSize is normalized here, making the plan's Options final.
func NewPlan(table *compile.Table, opts Options) *Plan {
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = DefaultChunkSize
	}
	n := len(table.States)
	p := &Plan{table: table, opts: opts, stateTags: make([]*tagStrings, n)}
	// tags interns one tagStrings per label during construction only; the
	// plan itself keeps just the per-state slice.
	tags := make(map[string]*tagStrings)
	for _, st := range table.States {
		if st.Label == "" {
			continue
		}
		t, ok := tags[st.Label]
		if !ok {
			t = &tagStrings{
				open:     []byte("<" + st.Label + ">"),
				close:    []byte("</" + st.Label + ">"),
				bachelor: []byte("<" + st.Label + "/>"),
			}
			tags[st.Label] = t
		}
		p.stateTags[st.ID] = t
	}
	p.stats.States = n
	p.stats.TagStrings = len(tags)
	p.stats.TableBytes = tableSize(table)
	p.stats.MemBytes = p.stats.TableBytes
	for label := range tags {
		// open + close + bachelor serializations: 3 labels plus 7 brackets.
		p.stats.MemBytes += int64(3*len(label) + 7)
	}
	return p
}

// tableSize estimates the memory retained by the compiled runtime automaton
// itself. Cache implementations that weigh entries must count it:
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

// TagBytes returns the interned serializations of the tag entering a state;
// they are nil for the unlabelled initial state, which no tag action ever
// targets. The slices are shared read-only state of the plan: an io.Writer
// may not modify or retain them (the io.Writer contract), and callers must
// not either.
func (p *Plan) TagBytes(st *compile.State) (open, close, bachelor []byte) {
	t := p.stateTags[st.ID]
	if t == nil {
		return nil, nil, nil
	}
	return t.open, t.close, t.bachelor
}

// Table returns the compiled runtime automaton the plan executes.
func (p *Plan) Table() *compile.Table { return p.table }

// Options returns the normalized runtime options the plan was built with.
func (p *Plan) Options() Options { return p.opts }

// Stats returns the plan's size and footprint counters.
func (p *Plan) Stats() PlanStats { return p.stats }
