package shuffle

import (
	"fmt"
	"time"

	"supmr/internal/exec"
	"supmr/internal/faults"
	"supmr/internal/kv"
	"supmr/internal/mapreduce"
	"supmr/internal/metrics"
	"supmr/internal/netsim"
	"supmr/internal/sortalgo"
	"supmr/internal/spill"
	"supmr/internal/storage"
)

// Options configures the simulated cluster a multi-node run exchanges
// its intermediate runs over.
type Options struct {
	// Nodes is the simulated worker-node count (>= 1; 1 is the
	// degenerate single-node cluster, useful for differential tests).
	Nodes int
	// CombinerOff disables the in-node combiner tier: each per-chunk
	// drained run is partitioned and transmitted as-is instead of being
	// pre-aggregated across all of the node's local workers first. The
	// destination merge re-reduces either way, so output bytes are
	// identical — only wire traffic changes.
	CombinerOff bool
	// LinkBW is each node port's bandwidth in bytes/sec
	// (0 = netsim.GigabitEthernet); LinkLatency is the per-transfer
	// one-way latency.
	LinkBW      float64
	LinkLatency time.Duration
	// Clock schedules fabric transfers and retry backoff.
	Clock storage.Clock
	// Injector (optional) arms one fault seam per directed node pair —
	// sites "shuffle-n<src>-n<dst>" — injecting latency spikes and torn
	// frame transfers; Retry resends torn frames (transient faults
	// only) with Counters accumulating outcomes.
	Injector *faults.Injector
	Retry    faults.RetryPolicy
	Counters *faults.Counters
}

// Exchange runs the cross-node tiers of a multi-node job over the
// per-node runs the ingest pipeline drained (nodeRuns[n] holds node n's
// key-sorted per-chunk runs, in chunk order — internal/core routes
// chunk i to node i mod Nodes and drains after every map wave):
//
//	combine: (in-node combiner, unless ablated) each node pre-aggregates
//	         all its local runs into one run before transmission
//	shuffle: runs are hash-partitioned by encoded key; partition p is
//	         owned by node p; remote slices travel as checksummed frames
//	         over per-node fabric links, local slices bypass the wire
//	reduce:  each node merges its received + local slices with the
//	         re-reducing loser-tree pass
//	merge:   node outputs hold disjoint keys; one final interleave
//	         produces the globally sorted result
//
// Output is byte-identical to a single-node run: hash partitioning keeps
// each key on one node and every merge re-reduces under the standing
// associative-combiner contract. The exchange's counters (wire bytes,
// frames, combiner savings, runs, reduce busy time, merge rounds) land
// in stats; the phases land on timer. On error the caller aborts the
// job.
func Exchange[K comparable, V any](app kv.App[K, V], nodeRuns [][][]kv.Pair[K, V], pool exec.Executor,
	timer *metrics.Timer, stats *mapreduce.Stats, opts Options) ([]kv.Pair[K, V], error) {
	nodes := opts.Nodes
	if nodes < 1 || len(nodeRuns) != nodes {
		return nil, fmt.Errorf("shuffle: %d node run lists for a %d-node cluster", len(nodeRuns), nodes)
	}
	if opts.Clock == nil {
		return nil, fmt.Errorf("shuffle: multi-node run requires a clock")
	}
	rec, err := spill.NewRecords[K, V]()
	if err != nil {
		return nil, fmt.Errorf("shuffle: %w", err)
	}
	bw := opts.LinkBW
	if bw == 0 {
		bw = netsim.GigabitEthernet
	}
	fab, err := netsim.NewFabric(nodes, bw, opts.LinkLatency, opts.Clock)
	if err != nil {
		return nil, err
	}
	var retrier *faults.Retrier
	if opts.Retry.Enabled() {
		retrier = faults.NewRetrier(opts.Retry, opts.Clock, opts.Counters)
	}
	wires := make([][]*faults.Wire, nodes)
	for src := range wires {
		wires[src] = make([]*faults.Wire, nodes)
		if opts.Injector == nil {
			continue
		}
		for dst := range wires[src] {
			if dst != src {
				wires[src][dst] = opts.Injector.Wire(fmt.Sprintf("shuffle-n%d-n%d", src, dst))
			}
		}
	}

	// --- in-node combine + partition + framed exchange ---------------
	timer.StartPhase(metrics.PhaseShuffle)
	recv := make([][][]kv.Pair[K, V], nodes) // recv[dst]: runs to merge at dst, in arrival order
	var scratch []byte
	recordBytes := func(p kv.Pair[K, V]) int64 {
		scratch = rec.Append(scratch[:0], p)
		return int64(len(scratch))
	}
	for src := 0; src < nodes; src++ {
		runs := nodeRuns[src]
		if !opts.CombinerOff && len(runs) > 1 {
			// The in-node combiner tier: one pre-aggregation pass over
			// every local worker's output before any byte is framed for
			// transmission. The saved-bytes counter is exact: encoded
			// size in, encoded size out.
			var before int64
			for _, r := range runs {
				for _, p := range r {
					before += recordBytes(p)
				}
			}
			combined, err := sortalgo.MergeRuns(pool, "shuffle", nil, runs, app.Less, app.Reduce, true)
			if err != nil {
				timer.EndPhase(metrics.PhaseShuffle)
				return nil, err
			}
			var after int64
			for _, p := range combined {
				after += recordBytes(p)
			}
			stats.ShuffleBytesSaved += before - after
			runs = [][]kv.Pair[K, V]{combined}
		}
		for _, run := range runs {
			// Split the sorted run into per-destination sub-runs: a
			// subsequence of a sorted run stays sorted.
			payloads := make([][]byte, nodes)
			counts := make([]int, nodes)
			var local []kv.Pair[K, V]
			for _, p := range run {
				key, val := rec.Encode(p)
				dst := PartitionOf(key, nodes)
				if dst == src {
					local = append(local, p)
					continue
				}
				payloads[dst] = spill.AppendRecord(payloads[dst], key, val)
				counts[dst]++
			}
			if len(local) > 0 {
				recv[src] = append(recv[src], local)
			}
			for dst := 0; dst < nodes; dst++ {
				if counts[dst] == 0 {
					continue
				}
				frame := EncodeFrame(nil, src, dst, counts[dst], payloads[dst])
				send := func() error {
					n, ferr := wires[src][dst].Send(len(frame))
					if terr := fab.Transfer(src, dst, int64(n)); terr != nil {
						return terr
					}
					stats.ShuffleBytes += int64(n)
					if ferr != nil {
						// Only a prefix reached the receiver: it must
						// reject the torn frame with a typed error,
						// never accept it, and the sender retries.
						if _, derr := DecodeFrame(frame[:n]); derr == nil {
							return fmt.Errorf("shuffle: torn frame to n%d accepted: %w", dst, ErrCorrupt)
						}
						return ferr
					}
					run, derr := decodeRun(frame, src, dst, rec)
					if derr != nil {
						return derr
					}
					recv[dst] = append(recv[dst], run)
					stats.ShuffleFrames++
					return nil
				}
				if err := retrier.Do(send); err != nil {
					timer.EndPhase(metrics.PhaseShuffle)
					return nil, fmt.Errorf("shuffle: n%d->n%d: %w", src, dst, err)
				}
			}
		}
	}
	timer.EndPhase(metrics.PhaseShuffle)

	// --- per-node destination merge (the reduce tier) ----------------
	outs := make([][]kv.Pair[K, V], nodes)
	for dst := range recv {
		stats.Runs += len(recv[dst])
	}
	timer.StartPhase(metrics.PhaseReduce)
	reduceBusy, err := pool.ForEach("reduce", metrics.StateUser, nodes, func(dst int) error {
		if len(recv[dst]) == 0 {
			return nil
		}
		var mErr error
		outs[dst], mErr = sortalgo.MergeRuns(nil, "", nil, recv[dst], app.Less, app.Reduce, true)
		return mErr
	})
	timer.EndPhase(metrics.PhaseReduce)
	if err != nil {
		return nil, err
	}
	stats.ReduceBusy = reduceBusy

	// --- global assembly: partitions hold disjoint keys --------------
	timer.StartPhase(metrics.PhaseMerge)
	merged, err := sortalgo.MergeRuns(pool, "merge", nil, outs, app.Less, app.Reduce, true)
	timer.EndPhase(metrics.PhaseMerge)
	if err != nil {
		return nil, err
	}
	stats.MergeRounds = 1
	return merged, nil
}

// decodeRun verifies and decodes one received frame into a key-sorted
// run. Header fields must match the link the frame arrived on.
func decodeRun[K comparable, V any](frame []byte, src, dst int, rec *spill.Records[K, V]) ([]kv.Pair[K, V], error) {
	f, err := DecodeFrame(frame)
	if err != nil {
		return nil, err
	}
	if f.Src != src || f.Part != dst {
		return nil, fmt.Errorf("%w: frame for n%d->n%d arrived on n%d->n%d", ErrCorrupt, f.Src, f.Part, src, dst)
	}
	run, err := rec.DecodeAll(f.Payload, f.Records)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(run) != f.Records {
		return nil, fmt.Errorf("%w: %d records, header says %d", ErrCorrupt, len(run), f.Records)
	}
	return run, nil
}
