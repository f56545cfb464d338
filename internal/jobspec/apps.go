package jobspec

import (
	"fmt"
	"strings"

	"supmr"
	"supmr/internal/kv"
	"supmr/internal/workload"
)

// caps is an app's capability set. Every app × knob rule Validate
// enforces is derived from it through rules, so no front end states an
// app-specific rule of its own.
type caps uint16

const (
	spillable   caps = 1 << iota // container releases its footprint over spill-codec types
	memoizable                   // map output round-trips the memo cache codecs
	wireCodec                    // key/value types cross simulated links
	pipedText                    // map parses newline-terminated "key\tvalue" text
	multiFile                    // runs over a generated file set
	mapCombiner                  // has the map-backed combiner ablation
	blockParam                   // takes a records-per-block grouping
	blocksParam                  // takes a total block count, which it needs
	oneRound                     // one MapReduce round with one merged output
)

// lacks explains, per capability, why an app without it rejects a knob.
var lacks = map[caps]string{
	spillable:   "its container cannot spill (fixed-footprint array, or values with no spill codec)",
	memoizable:  "its map output has no memo cache codec, or depends on more than the chunk content",
	wireCodec:   "its key/value types have no wire codec",
	pipedText:   "it maps a generated record format, not piped text",
	multiFile:   "it reads one generated file",
	mapCombiner: "it has no map-backed combiner ablation",
	blockParam:  "it has no records-per-block grouping",
	blocksParam: "it takes no block count",
	oneRound:    "it drives an iterative multi-round job solo on the supmr pipeline",
}

// use is the context a spec runs in beyond its own fields.
type use struct{ piped, engine bool }

// rules names, for every app-dependent knob, when a spec asks for it
// and the capability the app needs to honour it.
var rules = []struct {
	verb string
	asks func(Spec, use) bool
	need caps
}{
	{"run under a budget", func(s Spec, _ use) bool { return s.Budget > 0 }, spillable},
	{"memoize", func(s Spec, _ use) bool { return s.Memo }, memoizable},
	{"run on nodes", func(s Spec, _ use) bool { return s.Nodes > 0 }, wireCodec},
	{"consume a piped input", func(_ Spec, u use) bool { return u.piped }, pipedText},
	{"read files", func(s Spec, _ use) bool { return s.Files > 0 }, multiFile},
	{"turn the flat combiner off", func(s Spec, _ use) bool { return s.FlatCombinerOff }, mapCombiner},
	{"take block", func(s Spec, _ use) bool { return s.Block > 0 }, blockParam},
	{"take blocks", func(s Spec, _ use) bool { return s.Blocks > 0 }, blocksParam},
	{"run on an engine", func(_ Spec, u use) bool { return u.engine }, oneRound},
	{"egress", func(s Spec, _ use) bool { return s.EgressLanes > 0 }, oneRound},
	{"run on the traditional runtime", func(s Spec, _ use) bool { return s.Runtime == "traditional" }, oneRound},
}

// source is a job's ingest input: one file, or a file set.
type source struct {
	file  supmr.Input
	files []supmr.Input
}

// app is one row of the app table.
type app struct {
	caps caps
	// defaults fills the app's own parameter defaults in.
	defaults func(s *Spec, env Env)
	// input generates the app's workload on dev.
	input func(s Spec, dev supmr.Device, clock supmr.Clock) (source, error)
	// keySpace derives the memo key space from every parameter that
	// shapes a chunk's map output besides its content (nil: the app
	// name alone).
	keySpace func(s Spec) string
	// run builds the job and its container and executes it.
	run func(s Spec, src source, cfg supmr.Config) (*Result, *supmr.EgressOutput, error)
}

// table holds every app a Spec can name.
var table = map[string]app{
	"wordcount": {
		caps:  spillable | memoizable | wireCodec | pipedText | multiFile | mapCombiner | oneRound,
		input: text("wcinput", "wc"),
		run: job(func(s Spec) (supmr.Job[string, int64], supmr.Container[string, int64]) {
			if s.FlatCombinerOff {
				return supmr.WordCountJob(), supmr.WordCountMapContainer(64)
			}
			return supmr.WordCountJob(), supmr.WordCountContainer(64)
		}, func(_ Spec, rep *supmr.Report[string, int64]) []string {
			return lines("distinct words: %d  occurrences kept: %d  map waves: %d",
				len(rep.Pairs), rep.Stats.IntermediateN, rep.Stats.MapWaves)
		}),
	},
	"sort": {
		caps: spillable | memoizable | wireCodec | oneRound,
		input: func(s Spec, dev supmr.Device, _ supmr.Clock) (source, error) {
			f, err := supmr.TeraFile("sortinput", s.Size/100, uint64(s.Seed), dev)
			return source{file: f}, err
		},
		run: job(func(Spec) (supmr.Job[string, uint64], supmr.Container[string, uint64]) {
			return supmr.SortJob(), supmr.SortContainer()
		}, func(_ Spec, rep *supmr.Report[string, uint64]) []string {
			return lines("records sorted: %d  map waves: %d  merge rounds: %d",
				len(rep.Pairs), rep.Stats.MapWaves, rep.Stats.MergeRounds)
		}),
	},
	"histogram": {
		caps:  memoizable | wireCodec | pipedText | oneRound,
		input: text("histinput", ""),
		run: job(func(Spec) (supmr.Job[int, int64], supmr.Container[int, int64]) {
			j := supmr.HistogramJob()
			return j, j.NewContainer(8)
		}, func(_ Spec, rep *supmr.Report[int, int64]) []string {
			return lines("byte values seen: %d  map waves: %d", len(rep.Pairs), rep.Stats.MapWaves)
		}),
	},
	"grep": {
		caps:     spillable | memoizable | wireCodec | pipedText | mapCombiner | oneRound,
		input:    text("grepinput", ""),
		keySpace: func(s Spec) string { return "grep:" + s.Pattern },
		run: job(func(s Spec) (supmr.Job[string, int64], supmr.Container[string, int64]) {
			j := supmr.GrepJob(strings.Split(s.Pattern, ",")...)
			if s.FlatCombinerOff {
				return j, j.NewMapContainer()
			}
			return j, j.NewContainer()
		}, func(_ Spec, rep *supmr.Report[string, int64]) []string {
			var out []string
			for _, p := range rep.Pairs {
				out = append(out, fmt.Sprintf("  %-16s %d matching lines", p.Key, p.Val))
			}
			return out
		}),
	},
	"invindex": {
		caps: multiFile | oneRound,
		defaults: func(s *Spec, _ Env) {
			if s.Files <= 0 {
				s.Files = 16
			}
			s.FilesPerChunk = 1 // per-file attribution
		},
		input: text("", "doc"),
		run: job(func(Spec) (supmr.Job[string, []string], supmr.Container[string, []string]) {
			j := supmr.InvertedIndexJob()
			return j, j.NewContainer(32)
		}, func(s Spec, rep *supmr.Report[string, []string]) []string {
			return lines("indexed words: %d  files: %d", len(rep.Pairs), s.Files)
		}),
	},
	"linreg": {
		caps:  memoizable | wireCodec | oneRound,
		input: text("points", ""),
		run: job(func(Spec) (supmr.Job[int, float64], supmr.Container[int, float64]) {
			j := supmr.LinearRegressionJob()
			return j, j.NewContainer()
		}, func(_ Spec, rep *supmr.Report[int, float64]) []string {
			if slope, intercept, ok := supmr.LinearRegressionJob().Fit(rep.Pairs); ok {
				return lines("fit: y = %.4f*x + %.2f over %d points", slope, intercept, int64(rep.Pairs[0].Val))
			}
			return nil
		}),
	},
	"kmeans": {
		input: text("points", ""), // bytes as 2-D points
		run:   runKMeans,
	},
	"psum1": {
		caps:     spillable | memoizable | wireCodec | blockParam | oneRound,
		defaults: defaultBlock,
		input: func(s Spec, dev supmr.Device, _ supmr.Clock) (source, error) {
			f, err := supmr.SeqFile("psuminput", s.Size/workload.SeqRecordWidth, s.Seed, dev)
			return source{file: f}, err
		},
		keySpace: func(s Spec) string { return fmt.Sprintf("psum1:block=%d", s.Block) },
		run: job(func(s Spec) (supmr.Job[int, int64], supmr.Container[int, int64]) {
			j := supmr.PrefixPartJob(s.Block)
			return j, j.NewContainer(64)
		}, func(s Spec, rep *supmr.Report[int, int64]) []string {
			return lines("block sums: %d  records per block: %d", len(rep.Pairs), s.Block)
		}),
	},
	"psum2": {
		caps: spillable | memoizable | wireCodec | pipedText | blockParam | blocksParam | oneRound,
		defaults: func(s *Spec, env Env) {
			defaultBlock(s, env)
			switch {
			case s.Blocks > 0:
			case env.Upstream != nil: // round 1 emitted one pair per block
				s.Blocks = int64(env.Upstream.OutputPairs)
			case env.Input == nil:
				s.Blocks = (s.Size/workload.SeqRecordWidth + s.Block - 1) / s.Block
			}
		},
		// Standalone, round 1's reference output is synthesized from the
		// generator's expected block sums.
		input: func(s Spec, _ supmr.Device, clock supmr.Clock) (source, error) {
			var buf []byte
			for b, sum := range (workload.SeqGen{Seed: s.Seed}).BlockSums(s.Size/workload.SeqRecordWidth, s.Block) {
				buf = kv.AppendText(buf, &supmr.Pair[int, int64]{Key: b, Val: sum})
			}
			return source{file: supmr.MemoryFile("psum2input", buf, clock)}, nil
		},
		keySpace: func(s Spec) string { return fmt.Sprintf("psum2:blocks=%d", s.Blocks) },
		run: job(func(s Spec) (supmr.Job[int, int64], supmr.Container[int, int64]) {
			j := supmr.PrefixTotalJob(s.Blocks)
			return j, j.NewContainer(64)
		}, func(s Spec, rep *supmr.Report[int, int64]) []string {
			return lines("prefix totals: %d  blocks: %d", len(rep.Pairs), s.Blocks)
		}),
	},
}

func defaultBlock(s *Spec, _ Env) {
	if s.Block == 0 {
		s.Block = 256
	}
}

// text generates Zipf-word text: one file named name, or — for a
// multi-file app with Files set — Files files named prefix-N.
func text(name, prefix string) func(Spec, supmr.Device, supmr.Clock) (source, error) {
	return func(s Spec, dev supmr.Device, _ supmr.Clock) (source, error) {
		if s.Files > 0 {
			fs, err := supmr.TextFiles(prefix, s.Files, s.FileSize, s.Seed, dev)
			return source{files: fs}, err
		}
		f, err := supmr.TextFile(name, s.Size, s.Seed, dev)
		return source{file: f}, err
	}
}

// job erases one typed job into an app's run function: build makes the
// job and its container for the spec, summary describes the output.
// The job's own record boundary cuts chunks and splits.
func job[K comparable, V any](build func(Spec) (supmr.Job[K, V], supmr.Container[K, V]), summary func(Spec, *supmr.Report[K, V]) []string) func(Spec, source, supmr.Config) (*Result, *supmr.EgressOutput, error) {
	return func(s Spec, src source, cfg supmr.Config) (*Result, *supmr.EgressOutput, error) {
		j, cont := build(s)
		if b, ok := j.(interface{ Boundary() supmr.Boundary }); ok {
			cfg.Boundary = b.Boundary()
		}
		var (
			rep *supmr.Report[K, V]
			err error
		)
		if src.files != nil {
			rep, err = supmr.RunFiles(j, src.files, cont, cfg)
		} else {
			rep, err = supmr.RunFile(j, src.file, cont, cfg)
		}
		if err != nil {
			return nil, nil, err
		}
		return &Result{
			OutputPairs: len(rep.Pairs),
			Digest:      Digest(rep.Pairs),
			Times:       rep.Times.String(),
			Allocs:      rep.Allocs.String(),
			Summary:     summary(s, rep),
			Stats:       rep.Stats,
			Notes:       rep.Notes,
			Trace:       rep.Trace,
		}, rep.Egress, nil
	}
}

// runKMeans runs Lloyd's algorithm (4 clusters of 2-D byte points, up
// to 25 iterations). Its output is one pair per cluster: the point
// count and the final centroid.
func runKMeans(_ Spec, src source, cfg supmr.Config) (*Result, *supmr.EgressOutput, error) {
	km := supmr.KMeansJob(4, 2)
	km.Epsilon = 0.05
	res, err := supmr.RunKMeans(km, src.file, cfg, 25)
	if err != nil {
		return nil, nil, err
	}
	pairs := make([]supmr.Pair[int, string], len(res.Sizes))
	summary := lines("k-means: %d iterations, %d total map waves, final movement %.4f",
		res.Iterations, res.Waves, res.Moved)
	for i, n := range res.Sizes {
		c := km.Centroids[i]
		pairs[i] = supmr.Pair[int, string]{Key: i, Val: fmt.Sprintf("%d %v", n, c)}
		summary = append(summary, fmt.Sprintf("  cluster %d: %d points, centroid (%.1f, %.1f)", i, n, c[0], c[1]))
	}
	return &Result{
		OutputPairs: len(pairs),
		Digest:      Digest(pairs),
		Summary:     summary,
		Stats:       supmr.Stats{MapWaves: res.Waves, OutputPairs: len(pairs)},
	}, nil, nil
}

func lines(format string, args ...any) []string { return []string{fmt.Sprintf(format, args...)} }
