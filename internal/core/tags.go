package core

import (
	"fmt"

	"smp/internal/compile"
	"smp/internal/glushkov"
)

// MaxTagLength bounds the scan for a tag's closing bracket; a longer "tag"
// indicates input that is not well-formed XML (for example a stray '<').
const MaxTagLength = 1 << 20

// IsTagTerminator reports whether c may directly follow a tagname inside a
// tag: whitespace, '>' and, for opening tags, '/'.
func IsTagTerminator(c byte, closing bool) bool {
	switch c {
	case ' ', '\t', '\r', '\n', '>':
		return true
	case '/':
		return !closing
	default:
		return false
	}
}

func describeState(st *compile.State) string {
	if st.Label == "" {
		return "initial state"
	}
	if st.Close {
		return "after </" + st.Label + ">"
	}
	return "after <" + st.Label + ">"
}

// EndOfInputError is the error for an input that ends while the automaton
// still expects vocabulary in a non-final state.
func EndOfInputError(q int, st *compile.State) error {
	return fmt.Errorf("core: unexpected end of input in state q%d (%s): document does not conform to the DTD", q, describeState(st))
}

// TransitionError is the error for a matched token with no transition.
func TransitionError(q int, tok glushkov.Token) error {
	return fmt.Errorf("core: no transition for %s in state q%d: document does not conform to the DTD", tok, q)
}

// EOFInsideTagError is the error for an input that ends between a matched
// keyword and its tag's closing '>'.
func EOFInsideTagError(tagStart int64) error {
	return fmt.Errorf("core: unexpected end of input inside tag at offset %d", tagStart)
}

// TagTooLongError is the error for a tag with no '>' within MaxTagLength.
func TagTooLongError(tagStart int64) error {
	return fmt.Errorf("core: no '>' within %d bytes of offset %d: input is not well-formed XML", MaxTagLength, tagStart)
}
