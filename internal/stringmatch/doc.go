// Package stringmatch implements the exact string matching algorithms that
// the SMP prefiltering engine is built on, together with the classic
// baselines the paper compares against.
//
// Single-keyword matchers:
//
//   - BoyerMoore: the full Boyer-Moore algorithm with bad-character and
//     good-suffix rules. Used by the runtime engine whenever the frontier
//     vocabulary of the current automaton state contains a single keyword.
//   - Horspool: the Boyer-Moore-Horspool simplification (bad-character rule
//     only), provided for ablation experiments.
//   - Naive: the quadratic reference implementation used as a test oracle.
//
// Multi-keyword matchers:
//
//   - CommentzWalter: Boyer-Moore-style multi-keyword search over a trie of
//     reversed patterns with a bad-character shift function. Used by the
//     runtime engine whenever the frontier vocabulary contains more than one
//     keyword.
//   - SetHorspool: the Horspool simplification of Commentz-Walter (shift
//     determined only by the window-end character), provided for ablation.
//   - AhoCorasick: the classic automaton-based multi-keyword matcher that
//     inspects every input character, provided as the baseline the paper
//     argues against (cf. the discussion of [21] in the related work).
//   - NaiveMulti: quadratic reference used as a test oracle.
//
// All matchers operate on byte slices, never copy the text, and maintain a
// Stats record (character comparisons, shift counts and sizes, windows
// examined) so that the experiment harness can report the same
// "Char Comp. [%]" and "Ø Shift Size" columns as Tables I and II of the
// paper.
//
// Occurrence semantics: single-keyword matchers report the leftmost
// occurrence. Multi-keyword matchers report the occurrence with the smallest
// end position; ties are broken in favour of the longest pattern. The SMP
// engine only searches for keywords of the form "<name" and "</name", which
// cannot overlap in well-formed XML, so for the engine this coincides with
// the leftmost occurrence.
package stringmatch
