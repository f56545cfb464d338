// Package core implements SupMR, the paper's primary contribution: a
// scale-up MapReduce runtime whose ingest chunk pipeline overlaps reading
// the input with map computation (double-buffering, §III) and whose merge
// phase uses a single-round parallel p-way merge (§IV).
//
// The shape follows Table I:
//
//	run_ingestMR()  -> Run            (launch the SupMR runtime)
//	run_mappers()   -> runMappers     (wrapper over mapreduce.MapWave that
//	                                   keeps the container persistent)
//	run_reducers()  -> mapreduce.ReducePhase (same as the internal reduce)
//	set_data()      -> ChunkAware.SetData    (chunk pointer/length callback)
//
// The pipeline executes n+1 rounds for n ingest chunks: the first round
// ingests chunk 0 serially, rounds 1..n-1 ingest chunk i+1 while mappers
// operate on chunk i, and the final round maps the last chunk.
//
// Every round runs on the job's persistent internal/exec pool: the
// prefetch ingest is a pool task on the dedicated IO worker (so it is
// joined — never abandoned mid-device-wait — when a round fails or the
// job is cancelled), and map/reduce/merge run on the pool's compute
// workers with panic isolation and cancellation.
//
// Persistence (§III-C) applies at two tiers: the global intermediate
// container accumulates across rounds (runMappers never resets it), and
// containers that pool their worker-local accumulators (the flat
// combiner) carry local tables and arenas from round to round, so
// steady-state rounds combine without allocating.
package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/exec"
	"supmr/internal/faults"
	"supmr/internal/kv"
	"supmr/internal/mapreduce"
	"supmr/internal/memo"
	"supmr/internal/metrics"
	"supmr/internal/shuffle"
	"supmr/internal/sortalgo"
	"supmr/internal/spill"
)

// ChunkAware is the set_data() callback of Table I: applications that
// need to know which ingest chunk their map callbacks are about to
// operate on (its length, index and source files) implement it; the
// runtime invokes it before each map wave.
type ChunkAware interface {
	SetData(c *chunk.Chunk)
}

// Tuner is the adaptive chunk-size feedback loop (the paper's §VIII
// future work, implemented in internal/tuner): after each pipelined
// round it receives the ingested chunk size and the round's observed
// ingest and map durations, and returns the chunk size to use next.
type Tuner interface {
	Next(chunkBytes int64, ingest, mapT time.Duration) int64
}

// Options configure the SupMR pipeline. The embedded runtime options
// carry worker counts, split counts and instrumentation; Merge defaults
// to the p-way algorithm, the SupMR sort modification.
type Options struct {
	mapreduce.Options
	// ResetEachRound re-initializes the container at every map round,
	// the traditional behaviour SupMR had to remove (§III-C). It exists
	// only for the persistent-container ablation: with it set, combiner
	// state from earlier rounds is discarded and results are wrong for
	// multi-chunk inputs.
	ResetEachRound bool
	// Tuner, when set and the input stream is chunk.Resizable, drives
	// the adaptive chunk-size feedback loop.
	Tuner Tuner
	// MemoryBudget caps the container's resident bytes (Container.
	// SizeBytes). When positive, the pipeline checks the budget between
	// ingest rounds; a container over budget is drained into a
	// key-sorted run written to SpillStore on the pool's IO lane while
	// the next map round computes, and the merge phase streams the runs
	// back in the same single p-way round. Zero disables spilling.
	MemoryBudget int64
	// SpillStore receives the spilled runs; required when MemoryBudget
	// is positive.
	SpillStore *spill.Store
	// Retry bounds transient-fault retries on spill-run writes (ingest
	// reads retry inside the input wrappers; see internal/faults). The
	// zero policy disables retries.
	Retry faults.RetryPolicy
	// FaultCounters accumulates retry outcomes for the report; nil runs
	// uncounted.
	FaultCounters *faults.Counters
	// PrefetchDepth is the ingest ring depth d: the pipeline keeps up to
	// d chunks in flight ahead of the map wave. The default (<= 1) is the
	// paper's double buffering — one chunk ahead. Deeper rings absorb
	// ingest jitter (a slow chunk hides behind buffered ones) at the cost
	// of d resident chunk buffers.
	PrefetchDepth int
	// IOLanes is the number of IO lanes each chunk read fans out across:
	// the read is split into up to IOLanes segments whose device waits
	// overlap on the pool's IO workers. <= 1 keeps the single-stream
	// read. Values above the pool's IO worker count are clamped.
	IOLanes int
	// Freelist, when set, is a shared chunk-buffer freelist the ingest
	// fetcher recycles through — the multi-job engine passes one list so
	// all submissions reuse each other's chunk buffers. Nil gives the
	// job a private freelist.
	Freelist *chunk.FreeList
	// MemoStore, when set, enables content-addressed memoization: every
	// ingest chunk is keyed by its content hash under MemoSpace, a hit
	// replays the cached map/combine output past the map wave, and a
	// miss is mapped, drained per chunk and published back to the cache.
	// Requires an app whose key/value types have spill codecs.
	// MemoryBudget is ignored in memo mode — the container is drained
	// after every chunk, so its residency never exceeds one chunk's
	// combined output.
	MemoStore *memo.Store
	// MemoSpace namespaces memo cache keys (application identity plus
	// any parameters that change its output for the same input bytes).
	MemoSpace string
	// Shuffle, when set, runs the job on a simulated cluster of
	// Shuffle.Nodes worker nodes: chunk i maps into node i mod Nodes's
	// container (node 0 uses the caller's, the rest Fresh clones), each
	// node's container is drained after every map wave, and
	// shuffle.Exchange combines, partitions, sends and merges the drained
	// runs. Ingest is the same prefetch ring as a scale-up run. Like memo
	// mode, it ignores MemoryBudget; it cannot be combined with MemoStore.
	Shuffle *shuffle.Options
}

// Result aliases the runtime result type.
type Result[K comparable, V any] = mapreduce.Result[K, V]

// ingestResult is one prefetched chunk: the chunk (nil at EOF), the
// terminal error, and the ingest duration on the job clock for the
// tuner's feedback loop.
type ingestResult struct {
	c   *chunk.Chunk
	err error
	dur time.Duration
}

// Run launches the SupMR runtime (the run_ingestMR() API call): it
// drives the ingest chunk pipeline over the stream, reduces once, and
// merges with the configured algorithm. The container persists across
// all map rounds. If opts.Pool is nil a job pool is created here and
// torn down on return; either way every phase — including the prefetch
// ingest — runs on that single pool.
func Run[K comparable, V any](app kv.App[K, V], input chunk.Stream, cont container.Container[K, V], opts Options) (*Result[K, V], error) {
	ro := opts.Options
	pool := ro.Pool
	if pool == nil {
		own := exec.NewPool(nil, exec.Config{Workers: ro.Workers, IOWorkers: opts.IOLanes, Recorder: ro.Recorder})
		defer own.Close()
		pool = own
		ro.Pool = pool
	}
	timer := ro.Timer
	if timer == nil {
		timer = metrics.NewTimer(pool.Now)
	}
	ro.Timer = timer // MergePhase brackets its own run-sort/merge sub-phases

	// Fresh container at job start; never again (unless the ablation
	// flag asks for the broken behaviour).
	cont.Reset()
	ro.ResetContainer = false

	// The fixed-key sort fast path: resolved once so the spill drains,
	// the external merge and the in-memory merge all agree on it.
	var fixed *kv.FixedKeyCodec[K]
	if !ro.RadixDisabled {
		fixed = kv.FixedKeyOf[K, V](app)
	}
	drainRadixRuns := 0 // radix-sorted spill/memo/shuffle drains, folded into Stats.RadixRuns

	// The memo cache: the typed layer over the shared store, resolved up
	// front so jobs whose key/value types cannot serialize refuse to
	// start instead of failing at the first publish.
	var cache *memo.Cache[K, V]
	if opts.MemoStore != nil {
		var err error
		cache, err = memo.NewCache[K, V](opts.MemoStore, opts.MemoSpace)
		if err != nil {
			return nil, err
		}
	}

	// Per-chunk drain modes: memo and multi-node runs drain the
	// container that mapped a chunk right after its map wave, into that
	// node's run list (memo has one node). conts[n] is node n's container.
	conts := []container.Container[K, V]{cont}
	var drainLabel string // "" = the container persists to the reduce phase
	var drainPhase metrics.Phase
	switch {
	case cache != nil && opts.Shuffle != nil:
		return nil, fmt.Errorf("core: memoization cannot run on a multi-node cluster")
	case cache != nil:
		drainLabel, drainPhase = "memo", metrics.PhaseMemo
	case opts.Shuffle != nil:
		nodes := opts.Shuffle.Nodes
		if nodes < 1 {
			return nil, fmt.Errorf("core: node count must be >= 1, got %d", nodes)
		}
		// Refuse uncodable key/value types before reading any input.
		if _, err := spill.NewRecords[K, V](); err != nil {
			return nil, fmt.Errorf("core: multi-node run: %w", err)
		}
		if nodes > 1 {
			fr, ok := any(cont).(container.Fresher[K, V])
			if !ok {
				return nil, fmt.Errorf("core: container %T cannot be replicated across nodes (no Fresh method)", cont)
			}
			for len(conts) < nodes {
				conts = append(conts, fr.Fresh())
			}
		}
		drainLabel, drainPhase = "shuffle", metrics.PhaseShuffle
	}

	// The memory budget: a spiller when configured, nil otherwise.
	// Per-chunk drain modes never spill — the drains keep container
	// residency bounded by one chunk's combined output regardless of any
	// budget (the facade surfaces this as a report note).
	var spiller *spill.Spiller[K, V]
	if opts.MemoryBudget > 0 && drainLabel == "" {
		if _, ok := any(cont).(container.Unspillable); ok {
			return nil, fmt.Errorf("core: container %T cannot spill (its footprint is fixed by construction); run without a memory budget", cont)
		}
		if opts.SpillStore == nil {
			return nil, fmt.Errorf("core: MemoryBudget requires a SpillStore")
		}
		var err error
		spiller, err = spill.NewSpiller(opts.SpillStore, opts.MemoryBudget, app)
		if err != nil {
			return nil, err
		}
		spiller.SetRetry(opts.Retry, opts.FaultCounters)
		spiller.SetFixedKey(fixed)
	}

	depth := opts.PrefetchDepth
	if depth < 1 {
		depth = 1
	}
	lanes := opts.IOLanes
	if lanes < 1 {
		lanes = 1
	}
	if lanes > pool.IOLanes() {
		lanes = pool.IOLanes()
	}

	// Install the multi-lane fetcher whenever the stream supports it:
	// even a single-lane job benefits from its chunk-buffer freelist
	// (steady-state ingest allocates O(depth) buffers, not O(chunks)).
	// Segment waits dispatch onto the pool's IO lanes; the issue side of
	// every read runs on the pump goroutine below.
	if fa, ok := input.(chunk.FetcherAware); ok {
		var dispatch chunk.Dispatch
		if lanes > 1 {
			dispatch = func(bytes int64, fn func()) func() error {
				h := pool.GoIOSized("ingest", metrics.StateIOWait, bytes, func() error { fn(); return nil })
				return h.Wait
			}
		}
		list := opts.Freelist
		if list == nil {
			list = chunk.NewFreeList()
		}
		fa.SetFetcher(chunk.NewFetcherShared(lanes, dispatch, list))
	}

	resizable, _ := input.(chunk.Resizable)

	// The prefetch ring: a pump goroutine owns every stream read — and
	// therefore every fault decision and chunk-size resize — in strict
	// serial order, keeping up to `depth` chunks in flight ahead of the
	// map wave. The ring channel buffers depth-1 completed chunks; the
	// chunk being read on the pump is the depth-th. With the default
	// depth 1 the channel is unbuffered and the schedule is exactly the
	// single-slot double buffering: the next read starts when the
	// previous chunk is handed to the mappers.
	//
	// Shutdown: the pump exits after delivering a terminal result (EOF
	// or error) or when stop closes; it always closes the ring, so the
	// failure path can drain it to completion, releasing any chunks the
	// mappers never consumed.
	ring := make(chan ingestResult, depth-1)
	stop := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stop) }) }
	defer closeStop()
	var pendingResize atomic.Int64

	readNext := func() (res ingestResult) {
		start := pool.Now()
		defer func() { res.dur = pool.Now() - start }()
		if lanes > 1 {
			// Multi-lane: Next runs here on the pump — issuing segment
			// reads serially — while their device waits fan out across
			// the IO lanes through the fetcher's dispatch.
			if err := pool.Err(); err != nil {
				return ingestResult{err: err}
			}
			c, err := input.Next()
			switch {
			case errors.Is(err, io.EOF):
				return ingestResult{err: io.EOF}
			case err != nil:
				return ingestResult{err: fmt.Errorf("core: ingest failed: %w", err)}
			}
			return ingestResult{c: c}
		}
		// Single lane: the whole read is one task on the dedicated IO
		// worker, exactly the single-slot pipeline, so device waits keep
		// their IO-wait attribution. The handle always resolves — normal
		// return, stream panic (as a *PanicError), cancellation, or
		// refused submission — so the pump can always join the read, and
		// Close joins any read still parked in a device wait.
		h := pool.GoIO("ingest", metrics.StateIOWait, func() error {
			if err := pool.Err(); err != nil {
				return err
			}
			c, err := input.Next()
			switch {
			case errors.Is(err, io.EOF):
				return io.EOF
			case err != nil:
				return fmt.Errorf("core: ingest failed: %w", err)
			}
			res.c = c
			return nil
		})
		res.err = h.Wait()
		return res
	}

	go func() {
		defer close(ring)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Apply the tuner's latest resize before issuing the next
			// read: a resize never tears a read already in flight, it
			// only affects chunks not yet issued.
			if resizable != nil {
				if n := pendingResize.Swap(0); n > 0 {
					resizable.SetChunkSize(n)
				}
			}
			res := readNext()
			select {
			case ring <- res:
				if res.err != nil {
					return // EOF or terminal error: the ring is complete
				}
			case <-stop:
				res.c.Release()
				return
			}
		}
	}()

	var stats mapreduce.Stats
	runMappers := func(c *chunk.Chunk, into container.Container[K, V]) (time.Duration, error) {
		start := pool.Now()
		if opts.ResetEachRound {
			into.Reset()
		}
		if ca, ok := any(app).(ChunkAware); ok {
			ca.SetData(c)
		}
		n, busy, err := mapreduce.MapWaveTimed(app, c.Data, into, ro)
		if err != nil {
			return 0, err
		}
		stats.Splits += n
		stats.MapBusy += busy
		stats.MapWaves++
		stats.BytesIngested += c.Size()
		return pool.Now() - start, nil
	}

	// fail aborts the job: the cancellation reaches the in-flight
	// prefetch between stream reads, the pump is stopped and the ring
	// drained — releasing every unconsumed chunk — so no ingest result
	// is left behind when the pool shuts down, and an in-flight spill
	// write is joined so its run writer is not abandoned.
	fail := func(err error) (*Result[K, V], error) {
		pool.Abort(err)
		closeStop()
		for r := range ring {
			r.c.Release()
		}
		if spiller != nil {
			spiller.Join() // the job error wins; the write ran or was refused
		}
		timer.EndPhase(metrics.PhaseReadMap)
		return nil, err
	}

	// The ingest chunk pipeline (§III-B pseudo-code, generalized from
	// one prefetch slot to a ring of `depth`):
	//   ingest 1st chunk
	//   for each ingest chunk:
	//     pump keeps up to `depth` chunk reads ahead
	//     run mappers on previous chunk
	//   run mappers on last chunk
	timer.StartPhase(metrics.PhaseReadMap)
	first := <-ring
	if first.err != nil && !errors.Is(first.err, io.EOF) {
		return fail(first.err)
	}
	// nodeRuns[n] collects node n's key-sorted per-chunk runs in chunk
	// order — decoded cache payloads for memo hits, freshly drained
	// combiner output otherwise — for the memo merge or the exchange.
	nodeRuns := make([][][]kv.Pair[K, V], len(conts))
	cur := first.c
	for i := 0; cur != nil; i++ {
		if err := pool.Err(); err != nil {
			return fail(err)
		}
		node := i % len(conts)
		// Budget check between ingest rounds: drain an over-budget
		// container now — before this round's mappers refill it. The run
		// write lands on an IO lane and executes while the map round
		// computes (the pump keeps prefetching regardless).
		var drained []kv.Pair[K, V]
		if spiller != nil && spiller.Over(cont) {
			timer.EndPhase(metrics.PhaseReadMap)
			timer.StartPhase(metrics.PhaseSpill)
			err := spiller.Join() // at most one spill write in flight
			if err == nil {
				var nRad int
				drained, nRad, err = spiller.Drain(cont, pool)
				drainRadixRuns += nRad
			}
			timer.EndPhase(metrics.PhaseSpill)
			timer.StartPhase(metrics.PhaseReadMap)
			if err != nil {
				return fail(err)
			}
		}
		if len(drained) > 0 {
			spiller.SpillAsync(drained, pool)
		}
		// Memo lookup, serial and in chunk order on the IO lane, so the
		// operation order any fault plan sees at the memo site is a pure
		// function of the input. A cache failure (injected fault, torn
		// write caught by the digest) is swallowed into a miss — the
		// store counts it — and only a pool-level error fails the job.
		var (
			hit     bool
			run     []kv.Pair[K, V]
			memoKey memo.Key
		)
		if cache != nil {
			sum := cur.Sum
			if !cur.HasSum {
				sum = sha256.Sum256(cur.Data)
			}
			memoKey = cache.Key(sum)
			timer.EndPhase(metrics.PhaseReadMap)
			timer.StartPhase(metrics.PhaseMemo)
			h := pool.GoIO("memo", metrics.StateIOWait, func() error {
				run, hit, _ = cache.Get(memoKey)
				return nil
			})
			err := h.Wait()
			timer.EndPhase(metrics.PhaseMemo)
			timer.StartPhase(metrics.PhaseReadMap)
			if err != nil {
				return fail(err)
			}
		}
		// Give the ingest pump a scheduling slot so it reaches the
		// storage device (issuing its reservation and parking in the
		// device wait) before the mappers monopolize the CPUs; on
		// low-core machines it would otherwise start the read only
		// after the map wave finishes, defeating the double-buffering.
		runtime.Gosched()
		var mapDur time.Duration
		if hit {
			// The chunk's bytes were read and hashed but are never
			// mapped: the cached run replays straight into the merge.
			stats.MemoHits++
			stats.MemoBytesSaved += cur.Size()
			stats.BytesIngested += cur.Size()
			cur.Release()
		} else {
			var mapErr error
			mapDur, mapErr = runMappers(cur, conts[node])
			cur.Release() // the wave is done with the bytes; recycle the buffer
			if mapErr != nil {
				return fail(mapErr)
			}
			if drainLabel != "" {
				// Drain this chunk's combined output into a sorted run. A
				// memo miss also publishes it, synchronously on the IO
				// lane: lookup(i), publish(i), lookup(i+1) is a
				// deterministic op order, and a failed publish only skips
				// the cache entry, never the job.
				timer.EndPhase(metrics.PhaseReadMap)
				timer.StartPhase(drainPhase)
				pairs, nRad, err := spill.DrainContainer(conts[node], app.Less, app.Reduce, fixed, pool, drainLabel)
				drainRadixRuns += nRad
				if err == nil && cache != nil {
					h := pool.GoIO("memo", metrics.StateIOWait, func() error {
						cache.Put(memoKey, pairs)
						return nil
					})
					err = h.Wait()
					stats.MemoMisses++
				}
				timer.EndPhase(drainPhase)
				timer.StartPhase(metrics.PhaseReadMap)
				if err != nil {
					return fail(err)
				}
				run = pairs
			}
		}
		if len(run) > 0 {
			nodeRuns[node] = append(nodeRuns[node], run)
			stats.IntermediateN += len(run)
		}
		// Join the next chunk, counting how the ring performed: a chunk
		// already buffered is a prefetch hit; otherwise the map workers
		// sit idle for the stall time — the per-round slice of Fig. 1's
		// ingest/compute utilization gap.
		var r ingestResult
		select {
		case r = <-ring:
			stats.PrefetchHits++
		default:
			stallStart := pool.Now()
			r = <-ring
			if d := pool.Now() - stallStart; d > 0 {
				stats.IngestStall += d
				timer.Mark("ingest stall")
			}
		}
		if r.err != nil && !errors.Is(r.err, io.EOF) {
			return fail(r.err)
		}
		// Feedback loop: fold this round's observation into the tuner
		// and resize subsequent chunks. Durations are read off the job
		// clock (pool.Now), so simulated devices feed the tuner their
		// virtual timeline, not wall time. The resize is handed to the
		// pump, which applies it before the next read it issues.
		if opts.Tuner != nil && resizable != nil && r.c != nil {
			if next := opts.Tuner.Next(r.c.Size(), r.dur, mapDur); next > 0 {
				pendingResize.Store(next)
			}
		}
		cur = r.c
	}
	timer.EndPhase(metrics.PhaseReadMap)
	if lanes > 1 {
		stats.IngestLaneBytes = pool.LaneBytes()
	}
	finish := func(merged []kv.Pair[K, V]) (*Result[K, V], error) {
		stats.OutputPairs = len(merged)
		stats.Tasks = pool.TaskStats()
		return &Result[K, V]{Pairs: merged, Times: timer.Finish(), Stats: stats}, nil
	}

	// Per-chunk drain modes: the containers are empty, so there is
	// nothing left to reduce; the drained runs go to the memo merge or
	// across the cluster.
	switch {
	case cache != nil:
		// One streaming pass merges the chunk runs in chunk order,
		// re-reducing keys that appear in several chunks — the same
		// associativity contract the budgeted external merge relies on,
		// so memo output is byte-identical to the unmemoized pipeline's.
		// Memoization adds merge sources, not merge rounds.
		runs := nodeRuns[0]
		timer.StartPhase(metrics.PhaseMerge)
		merged, err := sortalgo.MergeRuns(pool, "merge", nil, runs, app.Less, app.Reduce, false)
		timer.EndPhase(metrics.PhaseMerge)
		if err != nil {
			pool.Abort(err)
			return nil, err
		}
		stats.Runs = len(runs)
		stats.MergeRounds = 1
		return finish(merged)
	case opts.Shuffle != nil:
		merged, err := shuffle.Exchange(app, nodeRuns, pool, timer, &stats, *opts.Shuffle)
		if err != nil {
			pool.Abort(err)
			return nil, err
		}
		stats.RadixRuns = drainRadixRuns
		return finish(merged)
	}
	stats.IntermediateN = cont.Len()

	// Join the last spill write before reducing: the merge below must
	// see every run complete. The residue still in the container is
	// never spilled — it feeds the merge from memory.
	if spiller != nil {
		timer.StartPhase(metrics.PhaseSpill)
		err := spiller.Join()
		timer.EndPhase(metrics.PhaseSpill)
		if err != nil {
			pool.Abort(err)
			return nil, err
		}
		stats.SpilledRuns = spiller.RunCount()
		stats.SpilledBytes = spiller.BytesSpilled()
	}

	timer.StartPhase(metrics.PhaseReduce)
	runs, reduceBusy, err := mapreduce.ReducePhaseTimed(app, cont, ro)
	timer.EndPhase(metrics.PhaseReduce)
	if err != nil {
		pool.Abort(err)
		return nil, err
	}
	stats.Runs = len(runs) + stats.SpilledRuns
	stats.ReduceBusy = reduceBusy

	var (
		merged    []kv.Pair[K, V]
		rounds    int
		radixRuns int
	)
	if spiller != nil && spiller.RunCount() > 0 {
		merged, rounds, radixRuns, err = externalMerge(app, runs, spiller, fixed, pool, timer)
	} else {
		merged, rounds, radixRuns, err = mapreduce.MergePhase(app, runs, ro)
	}
	if err != nil {
		pool.Abort(err)
		return nil, err
	}
	stats.MergeRounds = rounds
	stats.RadixRuns = radixRuns + drainRadixRuns
	return finish(merged)
}

// externalMerge is the budgeted merge: the in-memory residue runs sort
// in parallel (radix fast path when the app has a fixed-key codec),
// then one streaming loser-tree pass consumes them together with every
// on-disk run, re-reducing keys whose values were split across spills.
// The round count stays 1 — spilling adds merge sources, not merge
// rounds, preserving the paper's single-round property (§IV). Run-sort
// and merge time are bracketed separately, like mapreduce.MergePhase.
func externalMerge[K comparable, V any](app kv.App[K, V], runs [][]kv.Pair[K, V], spiller *spill.Spiller[K, V],
	fixed *kv.FixedKeyCodec[K], pool exec.Executor, timer *metrics.Timer) ([]kv.Pair[K, V], int, int, error) {
	timer.StartPhase(metrics.PhaseRunSort)
	radixRuns, err := sortalgo.SortRunsWith(runs, app.Less, fixed, pool)
	timer.EndPhase(metrics.PhaseRunSort)
	if err != nil {
		return nil, 0, 0, err
	}
	// One streaming pass over all sources; run it as a pool task so the
	// device waits of run reads are attributed to the job's workers.
	timer.StartPhase(metrics.PhaseMerge)
	merged, err := sortalgo.MergeRuns(pool, "merge", spiller.Sources(), runs, app.Less, app.Reduce, false)
	timer.EndPhase(metrics.PhaseMerge)
	if err != nil {
		return nil, 0, 0, err
	}
	return merged, 1, radixRuns, nil
}

// DefaultMerge is the merge algorithm SupMR ships with: the single-round
// parallel p-way merge.
const DefaultMerge = sortalgo.MergePWay
