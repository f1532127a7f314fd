// Package corpus shards a batch of XML documents across a pool of worker
// goroutines, each driving its own prefiltering engine, and aggregates the
// per-document runtime statistics. It is the batch/concurrent layer on top
// of any single-document engine: the engine answers "how do I project one
// document fast", corpus answers "how do I push a whole corpus through N
// cores". smp.Batch drives it with the prefilter's internal/pipeline engine
// (which also owns the other axes — splitting one large document across
// cores, and serving K queries from one scan); any type with a Project
// method returning core.Stats satisfies Engine, and the tests run the
// paper's Fig. 4 engine (internal/fig4) through testutil.CorpusEngine.
//
// The zero-configuration path is
//
//	runner := corpus.Runner{Engine: engine}
//	results, agg := runner.Run(context.Background(), jobs)
//
// which uses one shared, goroutine-safe engine and GOMAXPROCS workers. The
// context given to Run reaches every engine run: cancelling it skips
// unstarted jobs and aborts in-flight projections at their next chunk or
// segment boundary. Either way all workers execute one immutable compiled
// Plan — tables and interned tag strings exist once per compilation, not
// once per worker. Setting NewEngine gives every worker a private engine
// instance instead, which removes even the buffer-pool synchronization from
// the hot path; build the per-worker engines over one core.Plan to keep
// sharing it:
//
//	plan := core.NewPlan(table, core.Options{})
//	runner := corpus.Runner{NewEngine: func() corpus.Engine { return newEngine(plan) }}
package corpus
