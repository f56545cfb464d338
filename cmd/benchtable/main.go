// Command benchtable regenerates the paper's Table II twice:
//
//  1. At paper scale through the calibrated performance model
//     (internal/perfmodel): 155 GB word count and 60 GB sort on the
//     32-context, 384 MB/s testbed.
//  2. As real executions of this runtime on scaled-down inputs over the
//     simulated storage. The tool first measures this machine's actual
//     map throughput per application, then sets the simulated disk
//     bandwidth so the paper's read:map time ratio is reproduced
//     exactly — the quantity that determines every speedup shape.
//
// The shapes to check (§VI): SupMR beats the traditional runtime on
// both apps; small chunks beat large for word count; the sort gain comes
// from the merge column; read+map of SupMR word count ≈ the baseline's
// raw read time (map fully hidden).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"supmr"
	"supmr/internal/jobspec"
	"supmr/internal/metrics"
	"supmr/internal/perfmodel"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

func main() {
	var (
		app        = flag.String("app", "all", "wordcount | sort | all")
		wcSize     = flag.Int64("wc-size", 24<<20, "scaled word count input bytes")
		sortSize   = flag.Int64("sort-size", 32<<20, "scaled sort input bytes")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		model      = flag.Bool("model", true, "print the paper-scale model table")
		real       = flag.Bool("real", true, "run the scaled real executions")
		ingestJSON = flag.String("ingest-json", "", "write the multi-lane ingest sweep to this file and exit")
		memoJSON   = flag.String("memo-json", "", "write the incremental-recompute (memo) benchmark to this file and exit")
		sortJSON   = flag.String("sort-json", "", "write the sort-path (radix/columnar) benchmark to this file and exit")
		shufJSON   = flag.String("shuffle-json", "", "write the multi-node shuffle / in-node combiner benchmark to this file and exit")
		egJSON     = flag.String("egress-json", "", "write the parallel-egress lane sweep to this file and exit")
	)
	flag.Parse()

	if *egJSON != "" {
		if err := egressSweep(*egJSON); err != nil {
			fmt.Fprintln(os.Stderr, "benchtable:", err)
			os.Exit(1)
		}
		return
	}

	if *shufJSON != "" {
		if err := shuffleSweep(*shufJSON); err != nil {
			fmt.Fprintln(os.Stderr, "benchtable:", err)
			os.Exit(1)
		}
		return
	}

	if *sortJSON != "" {
		if err := sortSweep(*sortJSON); err != nil {
			fmt.Fprintln(os.Stderr, "benchtable:", err)
			os.Exit(1)
		}
		return
	}

	if *ingestJSON != "" {
		if err := ingestSweep(*ingestJSON); err != nil {
			fmt.Fprintln(os.Stderr, "benchtable:", err)
			os.Exit(1)
		}
		return
	}
	if *memoJSON != "" {
		if err := memoSweep(*memoJSON); err != nil {
			fmt.Fprintln(os.Stderr, "benchtable:", err)
			os.Exit(1)
		}
		return
	}
	if *model {
		fmt.Println("=== Table II at paper scale (calibrated performance model) ===")
		fmt.Print(perfmodel.FormatComparison(perfmodel.ModelTable2()))
		fmt.Println()
	}
	if !*real {
		return
	}
	if *app == "wordcount" || *app == "all" {
		if err := wordCountTable(*wcSize, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "benchtable:", err)
			os.Exit(1)
		}
	}
	if *app == "sort" || *app == "all" {
		if err := sortTable(*sortSize, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "benchtable:", err)
			os.Exit(1)
		}
	}
}

// ingestRow is one lane configuration of the striped-ingest sweep.
type ingestRow struct {
	Lanes        int     `json:"lanes"`
	Depth        int     `json:"prefetch_depth"`
	IngestSec    float64 `json:"sim_ingest_s"`
	ThroughputMB float64 `json:"sim_throughput_mbps"`
	Speedup      float64 `json:"speedup_vs_serial"`
	PrefetchHits int     `json:"prefetch_hits"`
	StallSec     float64 `json:"ingest_stall_s"`
	LaneBytes    []int64 `json:"lane_bytes,omitempty"`
}

// ingestSweep reruns BenchmarkIngestLanes's configuration — word count
// over a 3-member RAID-0 whose members cap a single stream at a third
// of their bandwidth — on a virtual clock, and writes the lane sweep as
// JSON (the CI artifact BENCH_ingest.json). The virtual ReadMap seconds
// isolate device time, so the speedup column is the striping gain
// itself, not map overlap.
func ingestSweep(path string) error {
	const (
		size     = 4 << 20
		chunk    = 512 << 10
		memberBW = 128 << 20
	)
	var rows []ingestRow
	for _, cfg := range []struct{ lanes, depth int }{{1, 1}, {2, 3}, {4, 3}} {
		clk := storage.NewFakeClock()
		members := make([]*storage.Disk, 3)
		for j := range members {
			d, err := storage.NewDisk(storage.DiskConfig{
				Name:            fmt.Sprintf("m%d", j),
				Bandwidth:       memberBW,
				StreamBandwidth: memberBW / 3,
			}, clk)
			if err != nil {
				return err
			}
			members[j] = d
		}
		raid, err := storage.NewRAID0(members, 64<<10)
		if err != nil {
			return err
		}
		f, err := supmr.TextFile("in", size, 7, raid)
		if err != nil {
			return err
		}
		rep, err := supmr.RunFile[string, int64](supmr.WordCountJob(), f,
			supmr.WordCountContainer(64), supmr.Config{
				Runtime: supmr.RuntimeSupMR, ChunkBytes: chunk, Clock: clk,
				IOLanes: cfg.lanes, PrefetchDepth: cfg.depth,
			})
		if err != nil {
			return err
		}
		ingest := rep.Times.Get(metrics.PhaseReadMap).Seconds()
		rows = append(rows, ingestRow{
			Lanes:        cfg.lanes,
			Depth:        cfg.depth,
			IngestSec:    ingest,
			ThroughputMB: float64(size) / 1e6 / ingest,
			Speedup:      rows0Speedup(rows, ingest),
			PrefetchHits: rep.Stats.PrefetchHits,
			StallSec:     rep.Stats.IngestStall.Seconds(),
			LaneBytes:    rep.Stats.IngestLaneBytes,
		})
	}
	out := struct {
		Benchmark  string      `json:"benchmark"`
		InputBytes int64       `json:"input_bytes"`
		ChunkBytes int64       `json:"chunk_bytes"`
		Members    int         `json:"raid_members"`
		MemberBW   int64       `json:"member_bw_bytes_per_s"`
		StreamBW   int64       `json:"stream_bw_bytes_per_s"`
		Rows       []ingestRow `json:"rows"`
	}{"ingest-lanes", size, chunk, 3, memberBW, memberBW / 3, rows}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("lanes=%d depth=%d ingest=%.4fs throughput=%.1f MB/s speedup=%.2fx hits=%d stall=%.4fs\n",
			r.Lanes, r.Depth, r.IngestSec, r.ThroughputMB, r.Speedup, r.PrefetchHits, r.StallSec)
	}
	return nil
}

// egressRow is one lane configuration of the parallel-egress sweep.
type egressRow struct {
	InputBytes   int64   `json:"input_bytes"`
	Lanes        int     `json:"lanes"`
	EgressBytes  int64   `json:"egress_bytes"`
	Extents      int     `json:"extents"`
	EgressSec    float64 `json:"sim_egress_s"`
	ThroughputMB float64 `json:"sim_throughput_mbps"`
	Speedup      float64 `json:"speedup_vs_serial"`
	StallSec     float64 `json:"egress_stall_s"`
	LaneBytes    []int64 `json:"lane_bytes,omitempty"`
	Digest       string  `json:"digest"`
}

// egressSweep measures the parallel restore — fanning the merged output
// across IO lanes — and writes the CI artifact BENCH_egress.json. Sort
// is the egressed app because its output is as large as its input. The
// ingest device is infinitely fast and the output disk caps a single
// stream at a sixth of its aggregate bandwidth, so a lone extent writer
// drains at the stream rate while concurrent lanes pipeline toward the
// aggregate rate: the virtual PhaseEgress seconds isolate the fan-out
// gain itself (measured ~2-2.5x at 4 lanes, gated at 1.5x like the
// ingest sweep). The gain needs the producer to stay ahead of the
// lanes; the parallel egress render keeps it there. Every configuration
// runs best-of-3 and must produce byte-identical output: each row's
// digest is the sha256 of the egressed bytes, which equals the job
// digest at every lane count.
func egressSweep(path string) error {
	const (
		aggBW    = 96 << 20
		streamBW = aggBW / 6
		extent   = 64 << 10
		reps     = 3
	)
	sizes := []int64{2 << 20, 6 << 20}
	lanes := []int{1, 2, 4}
	var rows []egressRow
	match := true
	for _, size := range sizes {
		records := size / workload.TeraRecordSize
		var serial float64
		var want string
		for _, ln := range lanes {
			var best egressRow
			for i := 0; i < reps; i++ {
				clk := storage.NewFakeClock()
				out, err := storage.NewDisk(storage.DiskConfig{
					Name:            "out",
					Bandwidth:       aggBW,
					StreamBandwidth: streamBW,
				}, clk)
				if err != nil {
					return err
				}
				f, err := supmr.TeraFile("sortin", records, 7, supmr.NewFastDevice(clk))
				if err != nil {
					return err
				}
				rep, err := supmr.RunFile[string, uint64](supmr.SortJob(), f,
					supmr.SortContainer(), supmr.Config{
						Runtime: supmr.RuntimeSupMR, ChunkBytes: size / 8, Clock: clk,
						Boundary:    supmr.CRLFRecords,
						EgressLanes: ln, EgressExtentBytes: extent, EgressDevice: out,
					})
				if err != nil {
					return err
				}
				eg := rep.Times.Get(metrics.PhaseEgress).Seconds()
				if i == 0 || eg < best.EgressSec {
					data, err := rep.Egress.Bytes()
					if err != nil {
						return err
					}
					best = egressRow{
						InputBytes:   size,
						Lanes:        ln,
						EgressBytes:  rep.Stats.EgressBytes,
						Extents:      rep.Stats.EgressExtents,
						EgressSec:    eg,
						ThroughputMB: float64(rep.Stats.EgressBytes) / 1e6 / eg,
						StallSec:     rep.Stats.EgressStall.Seconds(),
						LaneBytes:    rep.Stats.EgressLaneBytes,
						Digest:       jobspec.DigestBytes(data),
					}
					if best.Digest != jobspec.Digest(rep.Pairs) {
						match = false
					}
				}
				rep.Egress.Close()
			}
			if ln == 1 {
				serial, want = best.EgressSec, best.Digest
			}
			if best.Digest != want {
				match = false
			}
			if best.EgressSec > 0 {
				best.Speedup = serial / best.EgressSec
			}
			rows = append(rows, best)
		}
	}
	// The gated headline is the worst 4-lane fan-out gain across sizes.
	speedup := 0.0
	for _, r := range rows {
		if r.Lanes == 4 && (speedup == 0 || r.Speedup < speedup) {
			speedup = r.Speedup
		}
	}
	out := struct {
		Benchmark   string      `json:"benchmark"`
		AggBW       int64       `json:"agg_bw_bytes_per_s"`
		StreamBW    int64       `json:"stream_bw_bytes_per_s"`
		ExtentBytes int64       `json:"extent_bytes"`
		Reps        int         `json:"reps"`
		Rows        []egressRow `json:"rows"`
		Speedup     float64     `json:"speedup_4lanes_min"`
		DigestsOK   bool        `json:"digests_match"`
	}{"egress-lanes", aggBW, streamBW, extent, reps, rows, speedup, match}
	jdata, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(jdata, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("size=%-8d lanes=%d egress=%.4fs throughput=%6.1f MB/s speedup=%.2fx extents=%d stall=%.4fs\n",
			r.InputBytes, r.Lanes, r.EgressSec, r.ThroughputMB, r.Speedup, r.Extents, r.StallSec)
	}
	fmt.Printf("speedup=%.2fx digests_match=%v\n", speedup, match)
	return nil
}

// memoRow is one run of the incremental-recompute benchmark.
type memoRow struct {
	Run        string  `json:"run"`
	InputBytes int64   `json:"input_bytes"`
	WallMS     float64 `json:"wall_ms"`
	MemoHits   int     `json:"memo_hits"`
	MemoMisses int     `json:"memo_misses"`
	BytesSaved int64   `json:"memo_bytes_saved"`
	Digest     string  `json:"digest"`
}

// memoSweep measures content-addressed incremental recompute end to
// end and writes the CI artifact BENCH_memo.json: a cold grep run
// populates a shared memo store, then the same input with 1% appended
// re-runs against it (the incremental row), against a fresh store (the
// cold reference the speedup is measured from), and with the memo off
// (the ablation digest). The text generator is offset-deterministic,
// so the grown input is byte-for-byte the old input plus an appended
// tail — the shape the CDC chunker keeps cache-stable. Grep is the
// benchmarked app because its multi-pattern line scan is exactly the
// map cost a memo hit skips, while its output stays tiny; the run is
// wall-clock timed on an infinitely fast simulated device so the scan,
// not charged device time, is what the speedup measures.
// shuffleRow is one multi-node shuffle measurement.
type shuffleRow struct {
	Run           string  `json:"run"`
	Nodes         int     `json:"nodes"`
	Combiner      bool    `json:"combiner"`
	WallMS        float64 `json:"wall_ms"`
	ShuffleBytes  int64   `json:"shuffle_bytes"`
	BytesSaved    int64   `json:"shuffle_bytes_saved"`
	ShuffleFrames int     `json:"shuffle_frames"`
	Digest        string  `json:"digest"`
}

// shuffleSweep measures the in-node combiner's wire-byte reduction on a
// wordcount-class (combining string-keyed) workload: the same input
// runs single-node, on a 4-node cluster with the combiner, and on the
// same cluster with the combiner ablated. The claim under test is that
// pre-aggregating each node's map output before transmission cuts the
// framed bytes crossing the simulated links by at least 2x while every
// run's digest stays identical.
func shuffleSweep(path string) error {
	const (
		size  = 8 << 20
		chunk = 256 << 10
		nodes = 4
		seed  = 11
	)
	data := make([]byte, size)
	workload.TextGen{Seed: seed}.Fill()(0, data)

	run := func(label string, n int, combiner bool) (shuffleRow, error) {
		cfg := supmr.Config{Runtime: supmr.RuntimeSupMR, ChunkBytes: chunk, Nodes: n}
		if !combiner {
			off := false
			cfg.InNodeCombiner = &off
		}
		start := time.Now()
		rep, err := supmr.RunBytes[string, int64](supmr.WordCountJob(), data, supmr.WordCountContainer(64), cfg)
		if err != nil {
			return shuffleRow{}, err
		}
		wall := time.Since(start)
		return shuffleRow{
			Run:           label,
			Nodes:         n,
			Combiner:      combiner,
			WallMS:        float64(wall.Microseconds()) / 1000,
			ShuffleBytes:  rep.Stats.ShuffleBytes,
			BytesSaved:    rep.Stats.ShuffleBytesSaved,
			ShuffleFrames: rep.Stats.ShuffleFrames,
			Digest:        jobspec.Digest(rep.Pairs),
		}, nil
	}

	single, err := run("single-node", 0, true)
	if err != nil {
		return err
	}
	on, err := run("combiner-on", nodes, true)
	if err != nil {
		return err
	}
	off, err := run("combiner-off", nodes, false)
	if err != nil {
		return err
	}

	var reduction float64
	if on.ShuffleBytes > 0 {
		reduction = float64(off.ShuffleBytes) / float64(on.ShuffleBytes)
	}
	match := single.Digest == on.Digest && single.Digest == off.Digest
	out := struct {
		Benchmark  string       `json:"benchmark"`
		InputBytes int64        `json:"input_bytes"`
		ChunkBytes int64        `json:"chunk_bytes"`
		Rows       []shuffleRow `json:"rows"`
		Reduction  float64      `json:"wire_bytes_reduction_off_vs_on"`
		DigestsOK  bool         `json:"digests_match"`
	}{"shuffle-innode-combiner", size, chunk, []shuffleRow{single, on, off}, reduction, match}
	jdata, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(jdata, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("combiner on %d bytes vs off %d bytes on the wire\n", on.ShuffleBytes, off.ShuffleBytes)
	fmt.Printf("reduction=%.2fx digests_match=%v\n", reduction, match)
	return nil
}

func memoSweep(path string) error {
	const (
		baseSize = 24 << 20
		chunk    = 256 << 10
		seed     = 11
		patCount = 32
	)
	grownSize := int64(baseSize + baseSize/100)
	// The most frequent vocabulary words: every line matches some of
	// them, so the digest covers a real output, and each line pays a
	// scan per pattern.
	pats := make([]string, patCount)
	for r := range pats {
		pats[r] = workload.Word(r)
	}
	data := make([]byte, grownSize)
	workload.TextGen{Seed: seed}.Fill()(0, data)

	run := func(label string, input []byte, st *supmr.MemoStore, memoOn bool) (memoRow, error) {
		clk := supmr.NewClock()
		f := storage.BytesFile(label, input, supmr.NewFastDevice(clk))
		job := supmr.GrepJob(pats...)
		cfg := supmr.Config{Runtime: supmr.RuntimeSupMR, ChunkBytes: chunk, Clock: clk}
		if memoOn {
			cfg.Memo = true
			cfg.MemoStore = st
			cfg.MemoKeySpace = "bench:grep"
		}
		start := time.Now()
		rep, err := supmr.RunFile[string, int64](job, f, job.NewContainer(), cfg)
		if err != nil {
			return memoRow{}, err
		}
		wall := time.Since(start)
		return memoRow{
			Run:        label,
			InputBytes: int64(len(input)),
			WallMS:     float64(wall.Microseconds()) / 1000,
			MemoHits:   rep.Stats.MemoHits,
			MemoMisses: rep.Stats.MemoMisses,
			BytesSaved: rep.Stats.MemoBytesSaved,
			Digest:     jobspec.Digest(rep.Pairs),
		}, nil
	}

	shared, err := supmr.NewMemoStore(supmr.MemoConfig{Budget: 256 << 20})
	if err != nil {
		return err
	}
	defer shared.Close()
	cold, err := run("cold", data[:baseSize], shared, true)
	if err != nil {
		return err
	}
	incr, err := run("incremental", data, shared, true)
	if err != nil {
		return err
	}
	fresh, err := supmr.NewMemoStore(supmr.MemoConfig{Budget: 256 << 20})
	if err != nil {
		return err
	}
	coldref, err := run("coldref", data, fresh, true)
	fresh.Close()
	if err != nil {
		return err
	}
	off, err := run("memo-off", data, nil, false)
	if err != nil {
		return err
	}

	rows := []memoRow{cold, incr, coldref, off}
	speedup := coldref.WallMS / incr.WallMS
	match := incr.Digest == coldref.Digest && incr.Digest == off.Digest
	out := struct {
		Benchmark   string    `json:"benchmark"`
		BaseBytes   int64     `json:"base_bytes"`
		AppendBytes int64     `json:"append_bytes"`
		ChunkBytes  int64     `json:"chunk_bytes"`
		Patterns    int       `json:"patterns"`
		Rows        []memoRow `json:"rows"`
		Speedup     float64   `json:"speedup_incremental_vs_coldref"`
		DigestsOK   bool      `json:"digests_match"`
	}{"memo-incremental", baseSize, grownSize - baseSize, chunk, patCount, rows, speedup, match}
	jdata, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(jdata, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-12s %8d B  %8.2f ms  hits=%-4d misses=%-4d saved=%d B\n",
			r.Run, r.InputBytes, r.WallMS, r.MemoHits, r.MemoMisses, r.BytesSaved)
	}
	fmt.Printf("speedup=%.2fx digests_match=%v\n", speedup, match)
	return nil
}

// sortRow is one configuration of the sort-path benchmark.
type sortRow struct {
	Run        string  `json:"run"`
	Merge      string  `json:"merge"`
	Radix      bool    `json:"radix"`
	Spill      bool    `json:"spill"`
	RunSortMS  float64 `json:"runsort_ms"`
	MergeMS    float64 `json:"merge_ms"`
	SortPathMS float64 `json:"sortpath_ms"`
	RadixRuns  int     `json:"radix_runs"`
	Digest     string  `json:"digest"`
}

// sortSweep measures the vectorized sort/merge path end to end and
// writes the CI artifact BENCH_sort.json: terasort records (fixed
// 10-byte keys) run with the comparison path (-radixsort=off) and with
// the radix/columnar fast path, under both merge algorithms and under a
// memory budget that forces the spill/external-merge path. Each
// configuration runs several times and keeps its fastest sort path
// (run-sort + merge) to damp scheduler noise; the headline speedup
// compares the p-way comparison path against the p-way radix path,
// which is the pairing Table II's merge column uses. Devices are
// infinitely fast, so charged IO time is zero and the sort path is
// pure compute.
func sortSweep(path string) error {
	const (
		size = 48 << 20
		reps = 3
	)
	records := int64(size) / workload.TeraRecordSize

	run := func(label, merge string, radixOn, spill bool) (sortRow, error) {
		best := sortRow{Run: label, Merge: merge, Radix: radixOn, Spill: spill}
		for i := 0; i < reps; i++ {
			m := supmr.MergePairwise
			if merge == "pway" {
				m = supmr.MergePWay
			}
			cfg := supmr.Config{Splits: 64, Boundary: supmr.CRLFRecords, Merge: &m}
			if !radixOn {
				off := false
				cfg.RadixSort = &off
			}
			clk := supmr.NewClock()
			dev := supmr.NewFastDevice(clk)
			cfg.Clock = clk
			if spill {
				cfg.Runtime = supmr.RuntimeSupMR
				cfg.ChunkBytes = size / 8
				cfg.MemoryBudget = size / 4
				cfg.SpillDevice = dev
			}
			f, err := supmr.TeraFile("sort", records, 7, dev)
			if err != nil {
				return sortRow{}, err
			}
			rep, err := supmr.RunFile[string, uint64](supmr.SortJob(), f, supmr.SortContainer(), cfg)
			if err != nil {
				return sortRow{}, err
			}
			rs := rep.Times.Get(metrics.PhaseRunSort).Seconds() * 1000
			mg := rep.Times.Get(metrics.PhaseMerge).Seconds() * 1000
			if i == 0 || rs+mg < best.SortPathMS {
				best.RunSortMS = rs
				best.MergeMS = mg
				best.SortPathMS = rs + mg
				best.RadixRuns = rep.Stats.RadixRuns
			}
			if i == 0 {
				best.Digest = jobspec.Digest(rep.Pairs)
			}
		}
		return best, nil
	}

	configs := []struct {
		label, merge string
		radix, spill bool
	}{
		{"pairwise-cmp", "pairwise", false, false},
		{"pairwise-radix", "pairwise", true, false},
		{"pway-cmp", "pway", false, false},
		{"pway-radix", "pway", true, false},
		{"spill-cmp", "pway", false, true},
		{"spill-radix", "pway", true, true},
	}
	var rows []sortRow
	for _, c := range configs {
		r, err := run(c.label, c.merge, c.radix, c.spill)
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	byRun := func(name string) sortRow {
		for _, r := range rows {
			if r.Run == name {
				return r
			}
		}
		return sortRow{}
	}
	speedup := byRun("pway-cmp").SortPathMS / byRun("pway-radix").SortPathMS
	// Spill runs budget the container, so partial reduce can differ from
	// the in-memory rounds — compare digests within each substrate.
	inMem, spilled := rows[0].Digest, byRun("spill-cmp").Digest
	match := true
	for _, r := range rows {
		want := inMem
		if r.Spill {
			want = spilled
		}
		if r.Digest != want {
			match = false
		}
	}
	out := struct {
		Benchmark  string    `json:"benchmark"`
		InputBytes int64     `json:"input_bytes"`
		Records    int64     `json:"records"`
		Reps       int       `json:"reps"`
		Rows       []sortRow `json:"rows"`
		Speedup    float64   `json:"speedup_radix_vs_comparison"`
		DigestsOK  bool      `json:"digests_match"`
	}{"sort-path", size, records, reps, rows, speedup, match}
	jdata, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(jdata, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-14s merge=%-8s radix=%-5v runsort=%8.2f ms  merge=%8.2f ms  sortpath=%8.2f ms  radixruns=%d\n",
			r.Run, r.Merge, r.Radix, r.RunSortMS, r.MergeMS, r.SortPathMS, r.RadixRuns)
	}
	fmt.Printf("speedup=%.2fx digests_match=%v\n", speedup, match)
	return nil
}

// rows0Speedup relates a row's ingest time to the serial first row.
func rows0Speedup(rows []ingestRow, ingest float64) float64 {
	if len(rows) == 0 || ingest <= 0 {
		return 1
	}
	return rows[0].IngestSec / ingest
}

// measureMapRate times the app's map phase on an in-memory sample to
// learn this machine's map throughput (bytes/sec).
func measureMapRate(run func(data []byte) error, gen func(size int64) []byte) (float64, error) {
	const sample = 2 << 20
	data := gen(sample)
	start := time.Now()
	if err := run(data); err != nil {
		return 0, err
	}
	el := time.Since(start)
	if el <= 0 {
		el = time.Millisecond
	}
	return float64(sample) / el.Seconds(), nil
}

func wordCountTable(size int64, workers int) error {
	gen := func(n int64) []byte {
		buf := make([]byte, n)
		workload.TextGen{Seed: 7}.Fill()(0, buf)
		return buf
	}
	mapRate, err := measureMapRate(func(data []byte) error {
		_, err := supmr.RunBytes[string, int64](supmr.WordCountJob(), data,
			supmr.WordCountContainer(64), supmr.Config{Workers: workers})
		return err
	}, gen)
	if err != nil {
		return err
	}
	// Paper: read 403.90 s vs map 67.41 s -> read is 5.99x slower.
	bw := mapRate * (67.41 / 403.90)
	fmt.Printf("=== Table II, word count (scaled): input=%d B, sim disk=%.1f MB/s (map rate %.1f MB/s) ===\n",
		size, bw/1e6, mapRate/1e6)

	// Chunk sizes at the paper's fractions of the input: 1/155 and 50/155.
	rows := []struct {
		label string
		chunk int64
		rt    supmr.Runtime
	}{
		{"none", 0, supmr.RuntimeTraditional},
		{"1/155", size / 155, supmr.RuntimeSupMR},
		{"50/155", size * 50 / 155, supmr.RuntimeSupMR},
	}
	var out []metrics.Table2Row
	for _, r := range rows {
		clock := supmr.NewClock()
		dev, err := supmr.NewDisk("sim", bw, 0, clock)
		if err != nil {
			return err
		}
		f, err := supmr.TextFile("wc", size, 7, dev)
		if err != nil {
			return err
		}
		rep, err := supmr.RunFile[string, int64](supmr.WordCountJob(), f,
			supmr.WordCountContainer(64), supmr.Config{
				Runtime: r.rt, Workers: workers, ChunkBytes: r.chunk, Clock: clock,
			})
		if err != nil {
			return err
		}
		out = append(out, metrics.Table2Row{Label: r.label, Times: rep.Times, Fused: r.rt == supmr.RuntimeSupMR})
	}
	fmt.Print(metrics.FormatTable2("word count: mitigate ingest bottleneck", out))
	fmt.Printf("speedup (total, none vs 1/155): %.2fx\n\n",
		metrics.Speedup(out[0].Times.Total, out[1].Times.Total))
	return nil
}

func sortTable(size int64, workers int) error {
	records := size / workload.TeraRecordSize
	size = records * workload.TeraRecordSize
	// Calibrate against the merge phase: for sort the paper's read and
	// merge phases are nearly equal (182.78 s vs 191.23 s), and the merge
	// is where SupMR's gain lives. Measure this machine's pairwise merge
	// time on the actual record count, then set the simulated disk so
	// read:merge matches the paper.
	data := make([]byte, size)
	workload.TeraGen{Seed: 7}.Fill()(0, data)
	m := supmr.MergePairwise
	cal, err := supmr.RunBytes[string, uint64](supmr.SortJob(), data,
		supmr.SortContainer(), supmr.Config{Workers: workers, Splits: 64,
			Boundary: supmr.CRLFRecords, Merge: &m})
	if err != nil {
		return err
	}
	mergeTime := cal.Times.Get(metrics.PhaseMerge)
	if mergeTime <= 0 {
		mergeTime = time.Millisecond
	}
	readTarget := time.Duration(float64(mergeTime) * (182.78 / 191.23))
	bw := float64(size) / readTarget.Seconds()
	fmt.Printf("=== Table II, sort (scaled): input=%d B (%d records), sim disk=%.1f MB/s (merge cal %.0f ms) ===\n",
		size, records, bw/1e6, mergeTime.Seconds()*1000)

	rows := []struct {
		label string
		chunk int64
		rt    supmr.Runtime
		merge supmr.MergeAlgo
	}{
		{"none", 0, supmr.RuntimeTraditional, supmr.MergePairwise},
		{"1/60", size / 60, supmr.RuntimeSupMR, supmr.MergePWay},
	}
	var out []metrics.Table2Row
	for _, r := range rows {
		clock := supmr.NewClock()
		dev, err := supmr.NewDisk("sim", bw, 0, clock)
		if err != nil {
			return err
		}
		f, err := supmr.TeraFile("sort", records, 7, dev)
		if err != nil {
			return err
		}
		m := r.merge
		rep, err := supmr.RunFile[string, uint64](supmr.SortJob(), f,
			supmr.SortContainer(), supmr.Config{
				Runtime: r.rt, Workers: workers, Splits: 64, ChunkBytes: r.chunk,
				Boundary: supmr.CRLFRecords, Merge: &m, Clock: clock,
			})
		if err != nil {
			return err
		}
		out = append(out, metrics.Table2Row{Label: r.label, Times: rep.Times, Fused: r.rt == supmr.RuntimeSupMR, Merged: m == supmr.MergePWay})
	}
	fmt.Print(metrics.FormatTable2("sort: mitigate merge bottleneck", out))
	fmt.Printf("speedup (total): %.2fx   speedup (merge): %.2fx\n\n",
		metrics.Speedup(out[0].Times.Total, out[1].Times.Total),
		metrics.Speedup(out[0].Times.Get(metrics.PhaseMerge), out[1].Times.Get(metrics.PhaseMerge)))
	return nil
}
