// Package pipeline is the unified K×W execution engine behind every
// production projection run — smp.Project with or without workers or a
// trace, MultiProject, Batch and the smpserve handlers: K merged queries
// replaying one shared candidate stream produced by a segment source that
// scans the document with W workers (W <= 1 selects an in-line sequential
// scan). The paper's serial Fig. 4 engine (internal/fig4) is not on any
// production path; it stays as the reproduction of the paper's tables and
// as the byte-identity reference the internal/testutil grid compares every
// cell against.
//
// The package merges what used to be two separate exploitations of the
// paper's reduction (projection → anchored keyword search replayed through
// the Fig. 4 automaton):
//
//   - intra-document parallelism (formerly internal/split): the input is
//     cut into segments backed off at '<' boundaries, W workers scan the
//     segments speculatively against the union vocabulary, and a
//     sequential replay stitches the projection in input order;
//   - multi-query sharing (formerly internal/multiquery): one scan over
//     the union vocabulary of K plans serves K per-query replays, each
//     with private cursor, copy-region and writer state.
//
// Both were replays of the same candidate-stream seam (core.ScanPlan /
// core.SegmentScanner), so they compose here instead of multiplying code
// paths: a segment source — serial or W parallel segment scanners —
// produces an in-order stream of scanned segments, and K query replays
// consume it, retiring segments once every live query has passed them.
//
// Invariants that make every cell of the K×W grid — K=1, W=1 included —
// byte-identical to a standalone serial Fig. 4 run of each query:
//
//   - Candidates are position-exhaustive for the union vocabulary: every
//     occurrence any query's state-local search could verify appears in
//     some segment's list, and segments own disjoint position ranges, so
//     there are no duplicates and the concatenated lists are sorted.
//   - In state q at cursor c, the serial engine matches the first valid
//     occurrence of q's vocabulary at or after c; a replay selects the
//     first candidate at or after its cursor whose token is in q's
//     vocabulary. Other queries' tokens (and speculative occurrences the
//     serial search would have skipped) are invisible to it.
//   - An open copy region is flushed up to each retired segment boundary;
//     the serial engine flushes at window boundaries instead, but both
//     emit the region's bytes contiguously and never beyond the next
//     match, so the concatenated output is identical.
//
// A compiled Engine is immutable and safe for concurrent use; every
// Project call allocates its own run state.
package pipeline
