package supmr

// Randomized differential testing across the two runtimes: for every
// application and every compatible container, the traditional runtime
// and the SupMR pipeline must produce byte-identical output over the
// same randomly generated input. The runtimes share only the app and
// container code, so agreement here pins down the pipeline's
// correctness (chunking, persistent container, p-way merge) against
// the straightforward ingest-everything baseline.
//
// Exclusions, by construction rather than by bug:
//   - kmeans: an iterative driver over many SupMR jobs, not one job.
//   - OpenMP sort: not a kv.App; it has its own comparison tests.
//   - invindex over RunFiles: the app attributes words to chunk file
//     names, and the two runtimes chunk multi-file input differently,
//     so only the single-buffer (RunBytes) case is comparable.

import (
	"fmt"
	"strings"
	"testing"

	"supmr/internal/storage"
	"supmr/internal/workload"
)

// renderPairs flattens any output for byte-exact comparison.
func renderPairs[K comparable, V any](pairs []Pair[K, V]) string {
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "%v=%v\n", p.Key, p.Val)
	}
	return b.String()
}

// diffRun executes the job under both runtimes over data and fails on
// any output difference. mkCont builds a fresh container per run.
func diffRun[K comparable, V any](t *testing.T, job Job[K, V], mkCont func() Container[K, V], data []byte, cfg Config) {
	t.Helper()
	cfg = applyIngestEnv(cfg)
	cfg.Workers = 4
	cfg.Runtime = RuntimeTraditional
	trad, err := RunBytes(job, data, mkCont(), cfg)
	if err != nil {
		t.Fatalf("traditional: %v", err)
	}
	cfg.Runtime = RuntimeSupMR
	sup, err := RunBytes(job, data, mkCont(), cfg)
	if err != nil {
		t.Fatalf("supmr: %v", err)
	}
	if sup.Stats.MapWaves < 2 {
		t.Fatalf("supmr ran %d map waves; the differential run must be multi-chunk", sup.Stats.MapWaves)
	}
	a, b := renderPairs(trad.Pairs), renderPairs(sup.Pairs)
	if a != b {
		t.Fatalf("outputs differ: traditional %d pairs/%d bytes, supmr %d pairs/%d bytes",
			len(trad.Pairs), len(a), len(sup.Pairs), len(b))
	}
	if len(trad.Pairs) == 0 {
		t.Fatal("no output; the comparison is vacuous")
	}
}

func TestDifferentialRuntimes(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		text := genText(t, 128<<10, seed)
		cfg := Config{ChunkBytes: 16 << 10}

		t.Run(fmt.Sprintf("seed%d/wordcount-flat", seed), func(t *testing.T) {
			diffRun[string, int64](t, WordCountJob(),
				func() Container[string, int64] { return WordCountContainer(16) }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/wordcount-map", seed), func(t *testing.T) {
			diffRun[string, int64](t, WordCountJob(),
				func() Container[string, int64] { return WordCountMapContainer(16) }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/grep-flat", seed), func(t *testing.T) {
			job := GrepJob("ba", "zo", "nowhere-to-be-found")
			diffRun[string, int64](t, job,
				func() Container[string, int64] { return job.NewContainer() }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/grep-map", seed), func(t *testing.T) {
			job := GrepJob("ba", "zo")
			diffRun[string, int64](t, job,
				func() Container[string, int64] { return job.NewMapContainer() }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/histogram", seed), func(t *testing.T) {
			job := HistogramJob()
			diffRun[int, int64](t, job,
				func() Container[int, int64] { return job.NewContainer(8) }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/linreg", seed), func(t *testing.T) {
			job := LinearRegressionJob()
			lrCfg := cfg
			lrCfg.Boundary = FixedRecords(2)
			diffRun[int, float64](t, job,
				func() Container[int, float64] { return job.NewContainer() }, text, lrCfg)
		})
		t.Run(fmt.Sprintf("seed%d/invindex", seed), func(t *testing.T) {
			mk := func() Container[string, []string] { return InvertedIndexJob().NewContainer(16) }
			// Fresh job per run: the app carries per-run chunk attribution
			// state (set_data), so sharing one instance would leak file
			// names across runs.
			diffCfg := applyIngestEnv(cfg)
			diffCfg.Workers = 4
			diffCfg.Runtime = RuntimeTraditional
			trad, err := RunBytes[string, []string](InvertedIndexJob(), text, mk(), diffCfg)
			if err != nil {
				t.Fatalf("traditional: %v", err)
			}
			diffCfg.Runtime = RuntimeSupMR
			sup, err := RunBytes[string, []string](InvertedIndexJob(), text, mk(), diffCfg)
			if err != nil {
				t.Fatalf("supmr: %v", err)
			}
			if a, b := renderPairs(trad.Pairs), renderPairs(sup.Pairs); a != b {
				t.Fatalf("outputs differ: traditional %d pairs, supmr %d pairs", len(trad.Pairs), len(sup.Pairs))
			}
		})
		t.Run(fmt.Sprintf("seed%d/sort", seed), func(t *testing.T) {
			const records = 1200
			tera := make([]byte, records*100)
			workload.TeraGen{Seed: uint64(seed)}.Fill()(0, tera)
			job := SortJob()
			sortCfg := cfg
			sortCfg.Boundary = CRLFRecords
			sortCfg.ChunkBytes = 20 << 10
			diffRun[string, uint64](t, job,
				func() Container[string, uint64] { return SortContainer() }, tera, sortCfg)
		})
	}
}

// diffMultiNode runs the job single-node under the SupMR runtime, then
// across the full multi-node matrix — cluster size × in-node combiner ×
// radix ablation — and fails unless every cell's output is
// byte-identical to the single-node run. wantShuffle additionally
// demands that multi-node cells moved frames over the wire, so the
// matrix can't pass vacuously by never exercising the exchange.
func diffMultiNode[K comparable, V any](t *testing.T, job Job[K, V], mkCont func() Container[K, V], data []byte, cfg Config, wantShuffle bool) {
	t.Helper()
	cfg = applyIngestEnv(cfg)
	cfg.Workers = 4
	cfg.Runtime = RuntimeSupMR
	base, err := RunBytes(job, data, mkCont(), cfg)
	if err != nil {
		t.Fatalf("single-node baseline: %v", err)
	}
	if len(base.Pairs) == 0 {
		t.Fatal("no output; the comparison is vacuous")
	}
	want := renderPairs(base.Pairs)
	off := false
	for _, nodes := range []int{1, 2, 4} {
		for _, comb := range []bool{true, false} {
			for _, radix := range []bool{true, false} {
				label := fmt.Sprintf("nodes=%d combiner=%v radix=%v", nodes, comb, radix)
				c := cfg
				c.Nodes = nodes
				if !comb {
					c.InNodeCombiner = &off
				}
				if !radix {
					c.RadixSort = &off
				}
				rep, err := RunBytes(job, data, mkCont(), c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := renderPairs(rep.Pairs); got != want {
					t.Fatalf("%s: output differs from single-node: %d pairs vs %d", label, len(rep.Pairs), len(base.Pairs))
				}
				if wantShuffle && nodes > 1 && rep.Stats.ShuffleFrames == 0 {
					t.Fatalf("%s: no frames crossed the wire; the multi-node run degenerated", label)
				}
				if nodes == 1 && rep.Stats.ShuffleBytes != 0 {
					t.Fatalf("%s: a one-node cluster moved %d wire bytes", label, rep.Stats.ShuffleBytes)
				}
			}
		}
	}
}

// TestDifferentialMultiNode is the scale-out differential suite: every
// codec-compatible application must produce byte-identical output on
// simulated clusters of 1, 2 and 4 nodes, with the in-node combiner on
// and off and the radix sort path on and off, compared against the
// standing single-node pipeline. Exclusions by construction: kmeans
// (iterative driver) and invindex ([]string values have no wire codec)
// — both are rejected, which TestMultiNodeRejections pins down.
func TestDifferentialMultiNode(t *testing.T) {
	text := genText(t, 128<<10, 29)
	cfg := Config{ChunkBytes: 16 << 10}

	t.Run("wordcount-flat", func(t *testing.T) {
		diffMultiNode[string, int64](t, WordCountJob(),
			func() Container[string, int64] { return WordCountContainer(16) }, text, cfg, true)
	})
	t.Run("wordcount-map", func(t *testing.T) {
		diffMultiNode[string, int64](t, WordCountJob(),
			func() Container[string, int64] { return WordCountMapContainer(16) }, text, cfg, true)
	})
	t.Run("grep", func(t *testing.T) {
		job := GrepJob("ba", "zo", "nowhere-to-be-found")
		// Only a couple of live keys, so whether any lands remote is up
		// to the hash — identity is the claim here, not wire traffic.
		diffMultiNode[string, int64](t, job,
			func() Container[string, int64] { return job.NewContainer() }, text, cfg, false)
	})
	t.Run("histogram", func(t *testing.T) {
		job := HistogramJob()
		diffMultiNode[int, int64](t, job,
			func() Container[int, int64] { return job.NewContainer(8) }, text, cfg, true)
	})
	t.Run("linreg", func(t *testing.T) {
		job := LinearRegressionJob()
		lrCfg := cfg
		lrCfg.Boundary = FixedRecords(2)
		diffMultiNode[int, float64](t, job,
			func() Container[int, float64] { return job.NewContainer() }, text, lrCfg, false)
	})
	t.Run("sort", func(t *testing.T) {
		const records = 1200
		tera := make([]byte, records*100)
		workload.TeraGen{Seed: 31}.Fill()(0, tera)
		job := SortJob()
		sortCfg := cfg
		sortCfg.Boundary = CRLFRecords
		sortCfg.ChunkBytes = 20 << 10
		diffMultiNode[string, uint64](t, job,
			func() Container[string, uint64] { return SortContainer() }, tera, sortCfg, true)
	})
}

// TestMultiNodeRidesPrefetchRing: a multi-node run reads its chunks
// through the same prefetch ring and multi-lane fetcher as a scale-up
// run, so IOLanes and PrefetchDepth take effect on a cluster — reads
// fan out across the lanes and buffered chunks count as prefetch hits —
// while the output stays byte-identical to the single-node run.
func TestMultiNodeRidesPrefetchRing(t *testing.T) {
	run := func(nodes int) *Report[string, int64] {
		t.Helper()
		clk := storage.NewFakeClock()
		dev, err := NewDisk("disk", 64<<20, 0, clk)
		if err != nil {
			t.Fatal(err)
		}
		f, err := TextFile("in", 1<<20, 37, dev)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(16), Config{
			Runtime: RuntimeSupMR, Workers: 4, ChunkBytes: 64 << 10, Clock: clk,
			Nodes: nodes, IOLanes: 4, PrefetchDepth: 3,
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		return rep
	}
	single, multi := run(0), run(2)
	if renderPairs(multi.Pairs) != renderPairs(single.Pairs) {
		t.Fatalf("2-node output differs from single-node: %d pairs vs %d", len(multi.Pairs), len(single.Pairs))
	}
	if multi.Stats.ShuffleFrames == 0 {
		t.Fatal("no frames crossed the wire; the run never reached the exchange")
	}
	busy := 0
	for _, n := range multi.Stats.IngestLaneBytes {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("ingest lane bytes %v: a 4-lane multi-node run read through %d lane(s)", multi.Stats.IngestLaneBytes, busy)
	}
	if multi.Stats.PrefetchHits == 0 {
		t.Fatal("a depth-3 prefetch ring on a multi-node run recorded no prefetch hits")
	}
}

// TestMultiNodeBudgetIgnored: a budgeted multi-node run stays
// byte-identical and surfaces the ignored budget as a note instead of
// silently changing meaning (per-chunk drains already bound residency).
func TestMultiNodeBudgetIgnored(t *testing.T) {
	text := genText(t, 64<<10, 41)
	cfg := applyIngestEnv(Config{Runtime: RuntimeSupMR, Workers: 4, ChunkBytes: 8 << 10})
	base, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes = 4
	cfg.MemoryBudget = 32 << 10
	rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderPairs(base.Pairs), renderPairs(rep.Pairs); a != b {
		t.Fatal("budgeted multi-node output differs from single-node")
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "MemoryBudget ignored") {
			found = true
		}
	}
	if !found {
		t.Fatalf("budgeted multi-node run did not note the ignored budget: %q", rep.Notes)
	}
	if rep.Stats.SpilledRuns != 0 {
		t.Fatalf("multi-node run spilled %d runs; the spill path must be bypassed", rep.Stats.SpilledRuns)
	}
}

// TestMultiNodeSkewedPartition: hash partitioning sends every
// occurrence of a key to one node, so a pathologically skewed key
// distribution — here >90% of all tokens are one word — lands almost
// the whole intermediate set on a single partition. The cluster must
// still produce byte-identical output, with the hot key counted once
// and the wire genuinely exercised.
func TestMultiNodeSkewedPartition(t *testing.T) {
	// ~95% "zzzhotkey" tokens, 5% unique cold keys.
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		if i%20 == 0 {
			fmt.Fprintf(&b, "cold%05d ", i)
		} else {
			b.WriteString("zzzhotkey ")
		}
		if i%12 == 11 {
			b.WriteByte('\n')
		}
	}
	text := []byte(b.String())

	cfg := applyIngestEnv(Config{Runtime: RuntimeSupMR, Workers: 4, ChunkBytes: 16 << 10})
	base, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderPairs(base.Pairs)

	off := false
	for _, comb := range []bool{true, false} {
		c := cfg
		c.Nodes = 4
		if !comb {
			c.InNodeCombiner = &off
		}
		rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), c)
		if err != nil {
			t.Fatalf("combiner=%v: %v", comb, err)
		}
		if got := renderPairs(rep.Pairs); got != want {
			t.Fatalf("combiner=%v: skewed multi-node output differs from single-node", comb)
		}
		if rep.Stats.ShuffleBytes == 0 || rep.Stats.ShuffleFrames == 0 {
			t.Fatalf("combiner=%v: nothing crossed the wire (%d bytes, %d frames); the skew test is vacuous",
				comb, rep.Stats.ShuffleBytes, rep.Stats.ShuffleFrames)
		}
		var hot int64
		for _, p := range rep.Pairs {
			if p.Key == "zzzhotkey" {
				hot = p.Val
			}
		}
		if hot != 19000 {
			t.Fatalf("combiner=%v: hot key counted %d times, want 19000", comb, hot)
		}
	}
}

// TestMultiNodeRejections pins the configurations multi-node mode must
// refuse rather than reinterpret.
func TestMultiNodeRejections(t *testing.T) {
	text := genText(t, 16<<10, 43)
	base := Config{Runtime: RuntimeSupMR, Workers: 2, ChunkBytes: 4 << 10, Nodes: 2}

	if _, err := RunBytes[string, []string](InvertedIndexJob(), text, InvertedIndexJob().NewContainer(8), base); err == nil {
		t.Fatal("invindex ([]string values, no wire codec) accepted on a cluster")
	}

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"traditional", func(c *Config) { c.Runtime = RuntimeTraditional }},
		{"memo", func(c *Config) { c.Memo = true }},
		{"adaptive", func(c *Config) { c.AdaptiveChunks = true }},
		{"reset-each-round", func(c *Config) { c.ResetEachRound = true }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(8), cfg); err == nil {
			t.Fatalf("%s: accepted alongside Nodes, want rejection", tc.name)
		}
	}

	eng := NewEngine(EngineConfig{Workers: 2})
	defer eng.Close()
	cfg := base
	cfg.Engine = eng
	if _, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(8), cfg); err == nil {
		t.Fatal("engine submission with Nodes accepted, want rejection")
	}
}

// TestDifferentialSortHashContainer covers sort's second compatible
// container (hash-partitioned) against the key-range default under the
// SupMR runtime: the container choice must not change the output.
func TestDifferentialSortHashContainer(t *testing.T) {
	const records = 800
	tera := make([]byte, records*100)
	workload.TeraGen{Seed: 23}.Fill()(0, tera)
	job := SortJob()
	cfg := applyIngestEnv(Config{Runtime: RuntimeSupMR, Workers: 4, ChunkBytes: 20 << 10, Boundary: CRLFRecords})
	keyrange, err := RunBytes[string, uint64](job, tera, SortContainer(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := RunBytes[string, uint64](job, tera, job.NewHashContainer(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderPairs(keyrange.Pairs), renderPairs(hashed.Pairs); a != b {
		t.Fatalf("containers disagree: keyrange %d pairs, hash %d pairs", len(keyrange.Pairs), len(hashed.Pairs))
	}
}
