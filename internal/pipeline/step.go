package pipeline

import "smp/internal/core"

// Sentinels of a stepTable entry, beside the successor state ids (>= 0).
const (
	// notInVocab marks a token outside the state's vocabulary V(q): the
	// candidate is invisible to the query in that state.
	notInVocab = -1
	// noTransition marks a token in V(q) without an A(q, token) entry:
	// selecting the candidate is the DTD-conformance error.
	noTransition = -2
)

// stepTable is one query's Fig. 4 automaton re-indexed for the candidate
// stream: candidates carry an integer keyword id (core.Candidate.Kw), so
// the replay's per-candidate work is two array loads — no token compare
// against the state's vocabulary, no transition map lookup. Built once per
// Engine, in New; shared read-only by every run.
type stepTable struct {
	// local maps a union keyword id to the query's local token index, or
	// notInVocab when no state of the query searches for the keyword.
	local []int32
	// next[q*width+t] is the successor of state q on local token t, or one
	// of the notInVocab and noTransition sentinels.
	next  []int32
	width int
}

// newStepTable indexes plan's automaton by the union keyword ids of kwID.
func newStepTable(plan *core.Plan, kwID map[string]int32) stepTable {
	table := plan.Table()
	st := stepTable{local: make([]int32, len(kwID))}
	for i := range st.local {
		st.local[i] = notInVocab
	}
	for _, state := range table.States {
		for _, kw := range state.Vocabulary {
			if id := kwID[kw.Keyword]; st.local[id] == notInVocab {
				st.local[id] = int32(st.width)
				st.width++
			}
		}
	}
	st.next = make([]int32, len(table.States)*st.width)
	for i := range st.next {
		st.next[i] = notInVocab
	}
	for _, state := range table.States {
		row := st.row(state.ID)
		for _, kw := range state.Vocabulary {
			t := st.local[kwID[kw.Keyword]]
			if to, ok := state.Transitions[kw.Token]; ok {
				row[t] = int32(to)
			} else {
				row[t] = noTransition
			}
		}
	}
	return st
}

// row returns state q's successors, indexed by local token.
func (st *stepTable) row(q int) []int32 { return st.next[q*st.width : (q+1)*st.width] }

// memSize is the table's footprint in bytes.
func (st *stepTable) memSize() int64 { return 4*int64(len(st.local)+len(st.next)) + 56 }

// remap returns local re-indexed for a stream whose keyword ids refer to
// keywords instead of the union list: stream keywords outside the union
// map to notInVocab.
func (st *stepTable) remap(keywords []string, kwID map[string]int32) []int32 {
	local := make([]int32, len(keywords))
	for i, kw := range keywords {
		local[i] = notInVocab
		if id, ok := kwID[kw]; ok {
			local[i] = st.local[id]
		}
	}
	return local
}
