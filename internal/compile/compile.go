package compile

import (
	"fmt"
	"sort"
	"strings"

	"smp/internal/dtd"
	"smp/internal/glushkov"
	"smp/internal/paths"
	"smp/internal/projection"
)

// Keyword is one entry of a state's frontier vocabulary: the token the
// runtime automaton expects and the string keyword to search for. The
// keyword omits the trailing bracket because tags may carry whitespace or
// attributes ("<t" / "</t", paper Example 1).
type Keyword struct {
	Token   glushkov.Token
	Keyword string
}

// State is one state of the compiled runtime automaton together with its
// rows of the four lookup tables.
type State struct {
	ID int
	// Label and Close identify the tag token whose reading enters this
	// state (homogeneity); the initial state has an empty label.
	Label string
	Close bool
	// Final marks states from which the document may end (the runtime may
	// stop once a final state is reached and no vocabulary remains).
	Final bool
	// Action is the row of table T.
	Action Action
	// Vocabulary is the row of table V, sorted by keyword.
	Vocabulary []Keyword
	// Jump is the row of table J: the number of characters that can be
	// skipped unconditionally when entering this state.
	Jump int
	// Transitions is the row of table A.
	Transitions map[glushkov.Token]int
	// NFAStates lists the DTD-automaton states merged into this runtime
	// state by determinization (ascending IDs); exposed for tests and
	// debugging.
	NFAStates []int
	// Branch is a representative document branch of the state (the branch
	// of its first NFA state), used in diagnostics.
	Branch []string
}

// Action is an entry of table T: what the runtime does with the element
// whose tag enters a state (paper Fig. 3), from least to most preserving;
// actionFor relies on that order.
type Action int

// The actions of table T, in the order of projection.Action.
const (
	Skip         Action = iota // drop the element (and, unless a descendant is relevant, its tags)
	CopyTag                    // keep the tags without attributes
	CopyTagAttrs               // keep the tags with their attributes
	CopySubtree                // keep the whole subtree ("copy on" ... "copy off")
)

var actionNames = [...]string{"nop", "copy tag", "copy tag + atts", "copy on/off"}

// String returns the paper's name for the action.
func (a Action) String() string {
	if a < 0 || int(a) >= len(actionNames) {
		return "unknown"
	}
	return actionNames[a]
}

// Table is the complete output of the static analysis.
type Table struct {
	DTD    *dtd.DTD
	Paths  *paths.Set
	States []*State
	// Initial is the ID of the runtime automaton's initial state q0.
	Initial int
	// Stats summarizes the compilation (reported in Tables I and II).
	Stats Stats
}

// Stats reports the size of the compiled runtime automaton in the shape of
// the "States (CW + BM)" column of the paper's Tables I and II.
type Stats struct {
	// DTDAutomatonStates is the number of states of the document-level
	// DTD-automaton before selection.
	DTDAutomatonStates int
	// SelectedStates is |S| after the selection steps of Fig. 6.
	SelectedStates int
	// States is the number of runtime (DFA) states.
	States int
	// CWStates is the number of states with a multi-keyword frontier
	// (searched with Commentz-Walter).
	CWStates int
	// BMStates is the number of states with a single-keyword frontier
	// (searched with Boyer-Moore).
	BMStates int
}

// String renders the stats like the paper: "9 (2 + 6)".
func (s Stats) String() string {
	return fmt.Sprintf("%d (%d + %d)", s.States, s.CWStates, s.BMStates)
}

// Options tunes the compilation.
type Options struct {
	// DisableInitialJumps forces J[q] = 0 for every state. The ablation
	// benchmarks use this to isolate the contribution of the XML-specific
	// jump offsets.
	DisableInitialJumps bool
}

// Compile runs the full static analysis for a DTD and a projection path set.
func Compile(d *dtd.DTD, p *paths.Set, opts Options) (*Table, error) {
	if p == nil || p.Len() == 0 {
		return nil, fmt.Errorf("compile: empty projection path set")
	}
	dtdAut, err := glushkov.Build(d)
	if err != nil {
		return nil, err
	}
	rel := projection.NewRelevance(p)

	selected := selectStates(dtdAut, rel)
	sub := buildSubgraph(dtdAut, selected)
	dfa := determinize(sub)

	t := &Table{DTD: d, Paths: p, Initial: dfa.initial}
	t.Stats.DTDAutomatonStates = dtdAut.NumStates()
	t.Stats.SelectedStates = len(selected)

	minLens := dtd.NewMinLens(d)
	for _, ds := range dfa.states {
		st := &State{
			ID:          ds.id,
			Label:       ds.label,
			Close:       ds.close,
			Final:       ds.final,
			Transitions: ds.transitions,
			NFAStates:   ds.nfa,
		}
		if len(ds.nfa) > 0 {
			st.Branch = dtdAut.Branch(ds.nfa[0])
		}
		st.Action = actionFor(dtdAut, rel, ds)
		st.Vocabulary = vocabularyFor(ds)
		if !opts.DisableInitialJumps {
			st.Jump = jumpFor(dtdAut, minLens, ds, st.Vocabulary)
		}
		t.States = append(t.States, st)

		switch {
		case len(st.Vocabulary) > 1:
			t.Stats.CWStates++
		case len(st.Vocabulary) == 1:
			t.Stats.BMStates++
		}
	}
	t.Stats.States = len(t.States)
	return t, nil
}

// CompileForQuery extracts the projection paths of the query and compiles
// them (convenience for the public API and the CLI).
func CompileForQuery(d *dtd.DTD, query string, opts Options) (*Table, error) {
	set, err := paths.ExtractQuery(query)
	if err != nil {
		return nil, err
	}
	return Compile(d, set, opts)
}

// State returns the compiled state with the given ID.
func (t *Table) State(id int) *State { return t.States[id] }

// Successor returns the successor of state id on the given token, or -1 if
// the token is not in the state's frontier.
func (t *Table) Successor(id int, tok glushkov.Token) int {
	if to, ok := t.States[id].Transitions[tok]; ok {
		return to
	}
	return -1
}

// String renders the four lookup tables in a compact textual form, mirroring
// the layout of paper Fig. 3; used for debugging and golden tests.
func (t *Table) String() string {
	var b strings.Builder
	for _, s := range t.States {
		kind := "open"
		if s.Close {
			kind = "close"
		}
		if s.Label == "" {
			kind = "initial"
		}
		fmt.Fprintf(&b, "q%d [%s %s]%s\n", s.ID, kind, s.Label, finalMark(s.Final))
		var kws []string
		for _, k := range s.Vocabulary {
			kws = append(kws, fmt.Sprintf("%q", k.Keyword))
		}
		fmt.Fprintf(&b, "  V: {%s}\n", strings.Join(kws, ", "))
		fmt.Fprintf(&b, "  J: %d\n", s.Jump)
		fmt.Fprintf(&b, "  T: %s\n", s.Action)
		var trans []string
		for tok, to := range s.Transitions {
			trans = append(trans, fmt.Sprintf("%s -> q%d", tok, to))
		}
		sort.Strings(trans)
		for _, tr := range trans {
			fmt.Fprintf(&b, "  A: %s\n", tr)
		}
	}
	return b.String()
}

func finalMark(final bool) string {
	if final {
		return " (final)"
	}
	return ""
}

// vocabularyFor derives the V row from the outgoing transitions.
func vocabularyFor(ds *dfaState) []Keyword {
	var out []Keyword
	for tok := range ds.transitions {
		out = append(out, Keyword{Token: tok, Keyword: tok.Keyword()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Keyword < out[j].Keyword })
	return out
}

// actionFor derives the T row from the relevance of the state's NFA states.
// If determinization merged states whose actions differ, the most preserving
// action is chosen; preserving more data is always projection-safe.
func actionFor(aut *glushkov.Automaton, rel *projection.Relevance, ds *dfaState) Action {
	if ds.label == "" {
		return Skip
	}
	best := Skip
	for _, id := range ds.nfa {
		// The relevance analysis is the reference projector's; its actions
		// convert value for value (TestOracleActionConversion).
		a := Action(rel.ActionFor(aut.Branch(id)))
		if a > best {
			best = a
		}
	}
	return best
}
