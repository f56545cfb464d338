// Command supmr runs one of the benchmark applications under either
// runtime against a simulated storage substrate, printing a Table II
// style phase breakdown and, optionally, the collectl-style utilization
// trace.
//
// Examples:
//
//	supmr -app wordcount -runtime supmr -size 32m -chunk 2m -bw 8m -trace
//	supmr -app sort -runtime traditional -size 16m -bw 16m
//	supmr -app wordcount -files 30 -files-per-chunk 4 -filesize 1m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"supmr"
	"supmr/internal/cliutil"
	"supmr/internal/jobspec"
)

func main() {
	// A known subcommand routes to the supmrd client (`supmr submit ...`)
	// or the local pipeline runner; everything else is the classic
	// single-run CLI.
	if len(os.Args) > 1 && clientCommands[os.Args[1]] {
		clientMain(os.Args[1], os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "pipeline" {
		pipelineMain(os.Args[2:])
		return
	}
	jobSpec := jobFlags(flag.CommandLine, "32m", "2m", "8m", "ERROR")
	var (
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		merge     = flag.String("merge", "", "merge algorithm override: pairwise | pway")
		files     = flag.Int("files", 0, "use N small files with intra-file chunking instead of one big file")
		filesPer  = flag.Int("files-per-chunk", 4, "files per intra-file chunk")
		fileSize  = flag.String("filesize", "1m", "per-file size for -files")
		trace     = flag.Bool("trace", false, "print utilization trace")
		adaptive  = flag.Bool("adaptive", false, "enable the adaptive chunk-size feedback loop")
		hybrid    = flag.Bool("hybrid", false, "use hybrid inter/intra-file chunking for -files inputs")
		energy    = flag.Bool("energy", false, "estimate energy from the utilization trace (implies -trace)")
		contexts  = flag.Int("contexts", 4, "hardware contexts to normalize the trace to")
		bucketStr = flag.String("bucket", "100ms", "trace bucket width")
		digest    = flag.Bool("digest", false, "print only the output digest line, for diffing against another mode or a server-mode run")
		memoBudg  = flag.String("memo-budget", "64m", "memo-store byte budget; least-recently-used entries evict beyond it")
		nodes     = flag.Int("nodes", 0, "run on a simulated cluster of N SupMR worker nodes exchanging hash-partitioned runs over simulated links (supmr runtime; 0 = single-node scale-up pipeline; output byte-identical)")
		egExtent  = flag.String("egress-extent", "256k", "egress extent size for -egress-lanes")
	)
	flatComb := cliutil.OnOff(true)
	flag.Var(&flatComb, "flatcombiner", "use the flat (arena-interned, open-addressing) combining container for wordcount/grep; off selects the map-backed combiner (ablation)")
	innodeComb := cliutil.OnOff(true)
	flag.Var(&innodeComb, "innode-combiner", "pre-aggregate each node's map output before transmission in a -nodes run; off ships every per-chunk run as-is (ablation, byte-identical output, more wire bytes)")
	flag.Parse()

	spec := jobSpec()
	spec.Workers, spec.Merge, spec.Nodes, spec.InNodeCombinerOff = *workers, *merge, *nodes, !bool(innodeComb)
	spec.Files, spec.FilesPerChunk, spec.FileSize = *files, *filesPer, must(cliutil.ParseSize(*fileSize))
	spec.Adaptive, spec.Hybrid, spec.FlatCombinerOff = *adaptive, *hybrid, !bool(flatComb)
	spec.MemoBudget, spec.EgressExtent = must(cliutil.ParseSize(*memoBudg)), must(cliutil.ParseSize(*egExtent))
	spec.TraceBucket = must(cliutil.ParseDuration(*bucketStr))
	if *trace || *energy {
		spec.TraceContexts = *contexts
	}
	// Ctrl-C cancels the job context: the runtime aborts within the
	// current round and the process exits cleanly instead of dying
	// mid-phase.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, _, err := jobspec.Exec(ctx, spec, jobspec.Env{Literal: true})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "supmr: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(1)
	}
	if *digest {
		// The report's digest line led by the app name, so direct,
		// -digest and `supmr submit -wait` runs diff cleanly.
		fmt.Printf("app=%s pairs=%d digest=%s", spec.App, res.OutputPairs, res.Digest)
		if res.Stats.EgressBytes > 0 {
			// Byte-identical at any lane count, so this line diffs cleanly
			// across -egress-lanes settings.
			fmt.Printf(" egress=%dB/%d", res.Stats.EgressBytes, res.Stats.EgressExtents)
		}
		fmt.Println()
		return
	}
	s := res.Spec
	fmt.Printf("app=%s runtime=%s size=%d chunk=%d bw=%d\n", s.App, s.Runtime, s.Size, s.ChunkBytes, s.BW)
	for _, l := range res.Lines() {
		fmt.Println(l)
	}
	if res.Trace != nil {
		fmt.Println()
		fmt.Print(res.Trace.ASCII(16))
	}
	if *energy && res.Trace != nil {
		e := supmr.Energy(res.Trace, *contexts)
		fmt.Printf("energy: %.1f J over %v (avg %.1f W, peak %.1f W, E*D %.1f J*s)\n",
			e.Joules, e.Duration.Round(time.Millisecond), e.AvgWatts, e.PeakWatts, e.EnergyDelay())
	}
}

// jobFlags registers on fs the job-describing flags direct runs and
// `supmr submit` share, with the mode's size, chunk, bandwidth and
// pattern defaults, and returns the func that builds the Spec they
// describe once fs is parsed.
func jobFlags(fs *flag.FlagSet, size, chunk, bw, pattern string) func() jobspec.Spec {
	var (
		app      = fs.String("app", "wordcount", "application: wordcount | sort | histogram | grep | invindex | linreg | kmeans | psum1 | psum2 (kmeans is iterative and runs solo only)")
		rt       = fs.String("runtime", "supmr", "runtime: traditional | supmr")
		sizeStr  = fs.String("size", size, "input size in bytes (k/m/g suffixes)")
		seed     = fs.Int64("seed", 1, "workload generation seed")
		chunkStr = fs.String("chunk", chunk, "SupMR ingest chunk size (direct runs: 0 = whole input)")
		budget   = fs.String("budget", "0", "intermediate-container memory budget in bytes; over-budget state spills to the simulated device (0 = unbudgeted; supmr runtime only; a server's engine may grant less)")
		bwStr    = fs.String("bw", bw, "simulated storage bandwidth, bytes/sec (0 = infinite)")
		ioLanes  = fs.String("io-lanes", "1", "IO lanes for striped ingest: each chunk read splits into this many segments read in parallel (supmr runtime)")
		prefetch = fs.String("prefetch-depth", "1", "prefetch ring depth: ingest chunks kept in flight ahead of the map wave (supmr runtime)")
		pat      = fs.String("pattern", pattern, "comma-separated patterns for -app grep")
		faults   = fs.String("faults", "", "deterministic fault plan, e.g. seed=42,read-err-every=100,short-read=0.05,latency=2ms,latency-prob=0.1 (keys: seed, read-err[-every], write-err[-every], short-read[-every], latency[-prob|-every], permanent[-every], max)")
		retries  = fs.String("retries", "", "retry policy for transient faults: attempt count (\"4\") or attempts=N,base=DUR,max=DUR,budget=N")
		egLanes  = fs.String("egress-lanes", "0", "materialize the merged output across N concurrent extent writers after the merge (1 = serial-writer ablation, byte-identical output at any lane count; 0 = skip output materialization)")
	)
	memo := cliutil.OnOff(false)
	fs.Var(&memo, "memo", "content-addressed incremental recompute: content-defined chunking plus a per-chunk map/combine memo cache, shared across jobs on a server (supmr runtime, single-file inputs); off is the ablation spelling")
	radix := cliutil.OnOff(true)
	fs.Var(&radix, "radixsort", "radix sort/columnar merge fast path for fixed-width-key apps (sort/histogram/linreg/psum); off falls back to comparison sort everywhere (ablation, byte-identical output)")
	return func() jobspec.Spec {
		return jobspec.Spec{
			App: *app, Runtime: *rt, Seed: *seed, Pattern: *pat, Faults: *faults, Retries: *retries,
			Size: must(cliutil.ParseSize(*sizeStr)), ChunkBytes: must(cliutil.ParseSize(*chunkStr)),
			Budget: must(cliutil.ParseSize(*budget)), BW: must(cliutil.ParseSize(*bwStr)),
			IOLanes: must(cliutil.ParseCount(*ioLanes, 1)), PrefetchDepth: must(cliutil.ParseCount(*prefetch, 1)),
			EgressLanes: must(cliutil.ParseCount(*egLanes, 0)),
			Memo:        bool(memo), RadixOff: !bool(radix),
		}
	}
}

// must returns v, or exits with a usage error (status 2) when a flag
// value did not parse.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(2)
	}
	return v
}
