// Package compile implements the SMP static analysis (paper Section IV): it
// turns a non-recursive DTD and a set of projection paths into the runtime
// automaton and its four lookup tables
//
//	A — transition function (state × tag token → state)
//	V — frontier vocabulary per state (the keywords to search for next)
//	J — initial jump offsets per state
//	T — action per state (nop, copy tag [+ atts], copy on/off)
//
// following the compilation procedure of paper Fig. 6: relevant-state
// selection (steps 1a–1c), subgraph automaton (Definition 4), subset
// determinization, and table derivation.
//
// The output, a compile.Table, is the static half of the paper's
// static/runtime split. Everything downstream consumes it read-only: the
// serial engine executes it directly (internal/core wraps it in a Plan and
// internal/fig4 builds its string matchers beside it), the intra-document
// parallel mode derives its union-vocabulary scan tables from it
// (core.NewScanPlan, used by internal/pipeline), and Table.String renders the
// tables in the shape of paper Fig. 3 for inspection (`smp -describe`).
package compile
