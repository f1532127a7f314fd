package compile

import (
	"sort"
	"strings"
	"testing"

	"smp/internal/dtd"
	"smp/internal/glushkov"
	"smp/internal/paths"
)

// example2DTD is the DTD of paper Example 2 (and Fig. 5).
const example2DTD = `<!DOCTYPE a [
	<!ELEMENT a (b|c)*>
	<!ELEMENT b (#PCDATA)>
	<!ELEMENT c (b,b?)>
]>`

// fig1DTD is the simplified XMark DTD from paper Fig. 1, completed with
// #PCDATA declarations for the leaf elements ("assume that all unlisted tags
// have #PCDATA content").
const fig1DTD = `<!DOCTYPE site [
	<!ELEMENT site (regions)>
	<!ELEMENT regions (africa, asia, australia)>
	<!ELEMENT africa (item*)>
	<!ELEMENT asia (item*)>
	<!ELEMENT australia (item*)>
	<!ELEMENT item (location,name,payment,description,shipping,incategory+)>
	<!ELEMENT incategory EMPTY>
	<!ATTLIST incategory category ID #REQUIRED>
	<!ELEMENT location (#PCDATA)>
	<!ELEMENT name (#PCDATA)>
	<!ELEMENT payment (#PCDATA)>
	<!ELEMENT description (#PCDATA)>
	<!ELEMENT shipping (#PCDATA)>
]>`

func mustCompile(t *testing.T, dtdSrc, pathSpec string) *Table {
	t.Helper()
	table, err := Compile(dtd.MustParse(dtdSrc), paths.MustParseSet(pathSpec), Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return table
}

// stateByLabel returns the unique state with the given label and close flag.
func stateByLabel(t *testing.T, table *Table, label string, close bool) *State {
	t.Helper()
	var found *State
	for _, s := range table.States {
		if s.Label == label && s.Close == close {
			if found != nil {
				t.Fatalf("more than one state labelled %q (close=%v)", label, close)
			}
			found = s
		}
	}
	if found == nil {
		t.Fatalf("no state labelled %q (close=%v)", label, close)
	}
	return found
}

func keywords(s *State) []string {
	out := make([]string, len(s.Vocabulary))
	for i, k := range s.Vocabulary {
		out[i] = k.Keyword
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompilePaperFig3 reproduces the runtime automaton of paper Fig. 3:
// the DTD of Example 2 with P = {/*, /a/b#} compiles into seven states with
// the frontier vocabularies, jump offsets and actions shown in the figure.
func TestCompilePaperFig3(t *testing.T) {
	table := mustCompile(t, example2DTD, "/*, /a/b#")

	if table.Stats.States != 7 {
		t.Fatalf("States = %d, want 7:\n%s", table.Stats.States, table)
	}

	q0 := table.State(table.Initial)
	if !equalStrings(keywords(q0), []string{"<a"}) {
		t.Errorf("V[q0] = %v, want {\"<a\"}", keywords(q0))
	}
	if q0.Action != Skip {
		t.Errorf("T[q0] = %v, want nop", q0.Action)
	}

	q1 := stateByLabel(t, table, "a", false)
	if !equalStrings(keywords(q1), []string{"</a", "<b", "<c"}) {
		t.Errorf("V[q1] = %v, want {</a, <b, <c}", keywords(q1))
	}
	if q1.Action != CopyTag && q1.Action != CopyTagAttrs {
		t.Errorf("T[q1] = %v, want copy tag", q1.Action)
	}
	if q1.Jump != 0 {
		t.Errorf("J[q1] = %d, want 0", q1.Jump)
	}

	qHat1 := stateByLabel(t, table, "a", true)
	if len(qHat1.Vocabulary) != 0 {
		t.Errorf("V[q^1] = %v, want empty", keywords(qHat1))
	}
	if !qHat1.Final {
		t.Error("q^1 must be final")
	}

	q2 := stateByLabel(t, table, "b", false)
	if !equalStrings(keywords(q2), []string{"</b"}) {
		t.Errorf("V[q2] = %v, want {</b}", keywords(q2))
	}
	if q2.Action != CopySubtree {
		t.Errorf("T[q2] = %v, want copy on", q2.Action)
	}

	qHat2 := stateByLabel(t, table, "b", true)
	if !equalStrings(keywords(qHat2), []string{"</a", "<b", "<c"}) {
		t.Errorf("V[q^2] = %v, want {</a, <b, <c}", keywords(qHat2))
	}
	if qHat2.Action != CopySubtree {
		t.Errorf("T[q^2] = %v, want copy off", qHat2.Action)
	}

	q3 := stateByLabel(t, table, "c", false)
	if !equalStrings(keywords(q3), []string{"</c"}) {
		t.Errorf("V[q3] = %v, want {</c}", keywords(q3))
	}
	if q3.Action != Skip {
		t.Errorf("T[q3] = %v, want nop", q3.Action)
	}
	// Paper Example 3: the DTD guarantees at least one b-child, whose
	// shortest encoding <b/> has four characters.
	if q3.Jump != 4 {
		t.Errorf("J[q3] = %d, want 4", q3.Jump)
	}

	qHat3 := stateByLabel(t, table, "c", true)
	if !equalStrings(keywords(qHat3), []string{"</a", "<b", "<c"}) {
		t.Errorf("V[q^3] = %v, want {</a, <b, <c}", keywords(qHat3))
	}
	if qHat3.Action != Skip {
		t.Errorf("T[q^3] = %v, want nop", qHat3.Action)
	}

	// CW/BM split: q1, q^2, q^3 have multi-keyword frontiers (CW); q0, q2,
	// q3 are single-keyword (BM); q^1 has no vocabulary.
	if table.Stats.CWStates != 3 || table.Stats.BMStates != 3 {
		t.Errorf("CW+BM = %d+%d, want 3+3", table.Stats.CWStates, table.Stats.BMStates)
	}
}

// TestCompileTransitionsFig3 checks the transition structure of Fig. 3
// (table A): reading <b> from the a-state enters the b-state, reading <c>
// enters the c-state, and the closing tags return to the respective duals.
func TestCompileTransitionsFig3(t *testing.T) {
	table := mustCompile(t, example2DTD, "/*, /a/b#")

	q0 := table.State(table.Initial)
	q1 := stateByLabel(t, table, "a", false)
	qHat1 := stateByLabel(t, table, "a", true)
	q2 := stateByLabel(t, table, "b", false)
	qHat2 := stateByLabel(t, table, "b", true)
	q3 := stateByLabel(t, table, "c", false)
	qHat3 := stateByLabel(t, table, "c", true)

	checks := []struct {
		from *State
		tok  glushkov.Token
		to   *State
	}{
		{q0, glushkov.Open("a"), q1},
		{q1, glushkov.Open("b"), q2},
		{q1, glushkov.Open("c"), q3},
		{q1, glushkov.Closing("a"), qHat1},
		{q2, glushkov.Closing("b"), qHat2},
		{qHat2, glushkov.Open("b"), q2},
		{qHat2, glushkov.Open("c"), q3},
		{qHat2, glushkov.Closing("a"), qHat1},
		{q3, glushkov.Closing("c"), qHat3},
		{qHat3, glushkov.Open("b"), q2},
		{qHat3, glushkov.Open("c"), q3},
		{qHat3, glushkov.Closing("a"), qHat1},
	}
	for _, c := range checks {
		if got := table.Successor(c.from.ID, c.tok); got != c.to.ID {
			t.Errorf("A[q%d, %s] = %d, want q%d", c.from.ID, c.tok, got, c.to.ID)
		}
	}
	if got := table.Successor(q0.ID, glushkov.Open("b")); got != -1 {
		t.Errorf("A[q0, <b>] = %d, want -1 (undefined)", got)
	}
}

// TestCompilePaperExample12 reproduces paper Example 12: for P = {/*, //c#}
// the interior of the copied c-subtree is pruned, leaving the states for a
// and c only (five runtime states including q0).
func TestCompilePaperExample12(t *testing.T) {
	table := mustCompile(t, example2DTD, "/*, //c#")
	if table.Stats.States != 5 {
		t.Fatalf("States = %d, want 5:\n%s", table.Stats.States, table)
	}
	qc := stateByLabel(t, table, "c", false)
	if !equalStrings(keywords(qc), []string{"</c"}) {
		t.Errorf("V[c] = %v, want {</c}", keywords(qc))
	}
	if qc.Action != CopySubtree {
		t.Errorf("T[c] = %v, want copy on", qc.Action)
	}
	// No state for b exists.
	for _, s := range table.States {
		if s.Label == "b" {
			t.Errorf("unexpected state for label b: the copied subtree's interior must be pruned")
		}
	}
}

// TestCompilePaperExample11Orientation checks step 1(c): for P = {/*, /a/b#}
// the c-states are added as orientation states even though they are not
// relevant, so that a b-child of c cannot be mistaken for a b-child of a.
func TestCompilePaperExample11Orientation(t *testing.T) {
	table := mustCompile(t, example2DTD, "/*, /a/b#")
	qc := stateByLabel(t, table, "c", false)
	if qc.Action != Skip {
		t.Errorf("orientation state for c must have action nop, got %v", qc.Action)
	}
	qcHat := stateByLabel(t, table, "c", true)
	if qcHat.Action != Skip {
		t.Errorf("orientation state for /c must have action nop, got %v", qcHat.Action)
	}
}

// TestCompilePaperExample1Jump reproduces the initial jump of paper
// Example 1: after matching <site>, the DTD forces at least
// "<regions><africa/><asia/>" (25 characters) before <australia> can start.
func TestCompilePaperExample1Jump(t *testing.T) {
	table := mustCompile(t, fig1DTD, "/*, //australia//description#")
	qSite := stateByLabel(t, table, "site", false)
	if !equalStrings(keywords(qSite), []string{"<australia"}) {
		t.Fatalf("V[site] = %v, want {<australia}", keywords(qSite))
	}
	if qSite.Jump != 25 {
		t.Errorf("J[site] = %d, want 25", qSite.Jump)
	}

	// After <australia>, the frontier contains both <description and
	// </australia (the DTD does not force a description-descendant).
	qAu := stateByLabel(t, table, "australia", false)
	want := []string{"</australia", "<description"}
	if !equalStrings(keywords(qAu), want) {
		t.Errorf("V[australia] = %v, want %v", keywords(qAu), want)
	}
}

// TestCompileRequiredAttributeInJump checks that required attributes are
// factored into jump offsets (paper Section IV, "Remaining lookup tables").
func TestCompileRequiredAttributeInJump(t *testing.T) {
	const d = `<!DOCTYPE r [
		<!ELEMENT r (x, y)>
		<!ELEMENT x EMPTY>
		<!ATTLIST x id CDATA #REQUIRED>
		<!ELEMENT y (#PCDATA)>
	]>`
	table := mustCompile(t, d, "/*, /r/y#")
	qr := stateByLabel(t, table, "r", false)
	if !equalStrings(keywords(qr), []string{"<y"}) {
		t.Fatalf("V[r] = %v, want {<y}", keywords(qr))
	}
	// Before <y>, the document must contain at least <x id=""/> which is
	// 1+1+4+3 = 10 characters: "<x" + ` id=""` + "/>".
	if qr.Jump != 10 {
		t.Errorf("J[r] = %d, want 10", qr.Jump)
	}
}

// TestCompilePrefixTagnamesKeepJumpSafe ensures jumps never skip past a tag
// whose name has a frontier keyword as a prefix (Abstract/AbstractText).
func TestCompilePrefixTagnamesKeepJumpSafe(t *testing.T) {
	const d = `<!DOCTYPE r [
		<!ELEMENT r (AbstractText, Abstract)>
		<!ELEMENT AbstractText (#PCDATA)>
		<!ELEMENT Abstract (#PCDATA)>
	]>`
	table := mustCompile(t, d, "/*, /r/Abstract#")
	qr := stateByLabel(t, table, "r", false)
	if !equalStrings(keywords(qr), []string{"<Abstract"}) {
		t.Fatalf("V[r] = %v, want {<Abstract}", keywords(qr))
	}
	// The keyword "<Abstract" already occurs inside "<AbstractText ...>",
	// which starts immediately; the jump must therefore be 0.
	if qr.Jump != 0 {
		t.Errorf("J[r] = %d, want 0", qr.Jump)
	}
}

func TestCompileDisableInitialJumps(t *testing.T) {
	table, err := Compile(dtd.MustParse(example2DTD), paths.MustParseSet("/*, /a/b#"), Options{DisableInitialJumps: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range table.States {
		if s.Jump != 0 {
			t.Errorf("J[q%d] = %d, want 0 with DisableInitialJumps", s.ID, s.Jump)
		}
	}
}

func TestCompileRejectsRecursiveDTD(t *testing.T) {
	const recursive = `<!DOCTYPE a [ <!ELEMENT a (b?)> <!ELEMENT b (a?)> ]>`
	_, err := Compile(dtd.MustParse(recursive), paths.MustParseSet("/*, /a/b#"), Options{})
	if err == nil {
		t.Fatal("expected error for recursive DTD")
	}
	if !strings.Contains(err.Error(), "recursive") {
		t.Errorf("error %q does not mention recursion", err)
	}
}

func TestCompileRejectsEmptyPathSet(t *testing.T) {
	if _, err := Compile(dtd.MustParse(example2DTD), &paths.Set{}, Options{}); err == nil {
		t.Error("expected error for empty path set")
	}
}

func TestCompileForQuery(t *testing.T) {
	table, err := CompileForQuery(dtd.MustParse(fig1DTD), "<q>{//australia//description}</q>", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if table.Stats.States == 0 {
		t.Error("no states compiled")
	}
	if _, err := CompileForQuery(dtd.MustParse(fig1DTD), "<q>{$x/a}</q>", Options{}); err == nil {
		t.Error("expected extraction error to propagate")
	}
}

// TestCompileHomogeneity checks the structural invariant the action table
// relies on: all transitions into a state carry the same token.
func TestCompileHomogeneity(t *testing.T) {
	specs := []string{"/*, /a/b#", "/*, //c#", "/*, //b#", "/*, /a/b#, //b#"}
	for _, spec := range specs {
		table := mustCompile(t, example2DTD, spec)
		incoming := make(map[int]map[glushkov.Token]bool)
		for _, s := range table.States {
			for tok, to := range s.Transitions {
				if incoming[to] == nil {
					incoming[to] = make(map[glushkov.Token]bool)
				}
				incoming[to][tok] = true
			}
		}
		for id, toks := range incoming {
			if len(toks) != 1 {
				t.Errorf("spec %q: state q%d has %d distinct incoming tokens", spec, id, len(toks))
			}
			st := table.State(id)
			for tok := range toks {
				if tok.Name != st.Label || tok.Close != st.Close {
					t.Errorf("spec %q: state q%d labelled %q/%v but entered by %v", spec, id, st.Label, st.Close, tok)
				}
			}
		}
	}
}

// TestCompileVocabularyMatchesTransitions: V is exactly the keyword set of
// the outgoing transitions.
func TestCompileVocabularyMatchesTransitions(t *testing.T) {
	table := mustCompile(t, fig1DTD, "/*, /site/regions/australia/item/name#")
	for _, s := range table.States {
		if len(s.Vocabulary) != len(s.Transitions) {
			t.Errorf("state q%d: |V| = %d but %d transitions", s.ID, len(s.Vocabulary), len(s.Transitions))
		}
		for _, k := range s.Vocabulary {
			if _, ok := s.Transitions[k.Token]; !ok {
				t.Errorf("state q%d: vocabulary token %v has no transition", s.ID, k.Token)
			}
			if k.Keyword != k.Token.Keyword() {
				t.Errorf("state q%d: keyword %q does not match token %v", s.ID, k.Keyword, k.Token)
			}
		}
	}
}

func TestTableStringContainsTables(t *testing.T) {
	table := mustCompile(t, example2DTD, "/*, /a/b#")
	out := table.String()
	for _, want := range []string{"V:", "J:", "T:", "A:", "copy on/off", "nop"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table.String() missing %q:\n%s", want, out)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{States: 9, CWStates: 2, BMStates: 6}
	if got := s.String(); got != "9 (2 + 6)" {
		t.Errorf("Stats.String() = %q", got)
	}
}
