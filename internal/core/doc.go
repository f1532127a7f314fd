// Package core holds what every execution of a compiled prefilter shares:
// the immutable Plan (the runtime automaton of paper Fig. 3 and its tag
// strings), the production keyword scan over it, and the definitions the
// paper's Fig. 4 engine (internal/fig4) must agree on (tags.go).
package core
