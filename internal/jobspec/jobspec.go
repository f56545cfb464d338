// Package jobspec is the one way to describe and run a job: a Spec
// names an application, its generated workload and its runtime knobs;
// Exec turns it into a run through the app table (apps.go) — against a
// shared multi-job Engine when one is supplied — and returns a Result
// whose output digest lets callers diff runs across modes byte-for-byte
// without shipping the pairs themselves. The supmr CLI (direct and
// -digest modes), the supmrd job server and internal/dag all run jobs
// through it.
package jobspec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"supmr"
	"supmr/internal/cliutil"
	"supmr/internal/kv"
)

// Spec describes one job submission. The zero value of every optional
// field selects the documented default; Validate rejects nonsensical
// values instead of guessing.
type Spec struct {
	// App selects the application: wordcount | sort | histogram | grep |
	// invindex | linreg | kmeans | psum1 | psum2 (the two rounds of the
	// prefix-sum pipeline).
	App string `json:"app"`
	// Runtime selects the runtime: "supmr" (default) | "traditional".
	Runtime string `json:"runtime,omitempty"`
	// Size is the generated input size in bytes (default 4 MiB).
	Size int64 `json:"size,omitempty"`
	// Seed seeds workload generation (default 1).
	Seed int64 `json:"seed,omitempty"`
	// ChunkBytes is the SupMR ingest chunk size (default 256 KiB).
	ChunkBytes int64 `json:"chunk,omitempty"`
	// Budget caps the job's intermediate-container bytes; over-budget
	// state spills (supmr runtime only; 0 = unbudgeted). On an engine,
	// this is the request — the grant may be smaller.
	Budget int64 `json:"budget,omitempty"`
	// BW is the simulated storage bandwidth in bytes/sec (0 = infinite).
	BW int64 `json:"bw,omitempty"`
	// Workers is a solo run's compute worker count (0 = GOMAXPROCS; an
	// engine's shared pool wins).
	Workers int `json:"workers,omitempty"`
	// Merge overrides the merge algorithm: "pairwise" | "pway" (default:
	// the runtime's own).
	Merge string `json:"merge,omitempty"`
	// IOLanes is the striped-ingest lane count (default 1).
	IOLanes int `json:"io_lanes,omitempty"`
	// PrefetchDepth is the prefetch ring depth (default 1).
	PrefetchDepth int `json:"prefetch_depth,omitempty"`
	// Files, when >= 1, generates that many small files of FileSize
	// bytes and ingests them with intra-file chunking (multi-file apps
	// only; invindex always reads a file set, 16 files by default).
	Files int `json:"files,omitempty"`
	// FilesPerChunk is how many files each intra-file chunk coalesces
	// (default 1).
	FilesPerChunk int `json:"files_per_chunk,omitempty"`
	// FileSize is the per-file size for Files (default 1 MiB).
	FileSize int64 `json:"file_size,omitempty"`
	// Adaptive enables the adaptive chunk-size feedback loop.
	Adaptive bool `json:"adaptive,omitempty"`
	// Hybrid selects hybrid inter/intra-file chunking for Files inputs.
	Hybrid bool `json:"hybrid,omitempty"`
	// FlatCombinerOff selects the map-backed combining container over
	// the flat one — the -flatcombiner=off ablation.
	FlatCombinerOff bool `json:"flatcombiner_off,omitempty"`
	// Pattern is the comma-separated grep pattern list (grep only;
	// default "ERROR").
	Pattern string `json:"pattern,omitempty"`
	// Tenant names the submitting tenant for the engine rollup.
	Tenant string `json:"tenant,omitempty"`
	// Weight is the fair-share weight on the engine (default 1).
	Weight int `json:"weight,omitempty"`
	// Memo enables content-addressed incremental recompute: ingest
	// switches to content-defined chunking and each chunk's map/combine
	// output is memoized in the engine's shared store (or a private
	// per-run store when running without an engine store), so a
	// re-submission over mostly unchanged content replays cached output
	// instead of mapping it again. Supmr runtime only.
	Memo bool `json:"memo,omitempty"`
	// MemoKey namespaces the job's cache entries. Empty derives a key
	// space from the app and every parameter that shapes its map output
	// (grep patterns, psum block sizing), so jobs sharing the engine
	// store never replay each other's output.
	MemoKey string `json:"memo_key,omitempty"`
	// MemoBudget caps the private memo store of a solo memoized run
	// (default 64 MiB); an engine's shared store keeps its own budget.
	MemoBudget int64 `json:"memo_budget,omitempty"`
	// RadixOff disables the fixed-width-key sort fast path (radix run
	// sort + columnar merge) — the -radixsort=off ablation. Output is
	// byte-identical either way.
	RadixOff bool `json:"radix_off,omitempty"`
	// Nodes, when >= 1, runs the job on a simulated cluster of that
	// many SupMR worker nodes exchanging hash-partitioned runs over
	// simulated links (supmr runtime, solo execution only — the shared
	// engine schedules operations on one substrate). Output is
	// byte-identical to a single-node run; 0 keeps the scale-up
	// pipeline.
	Nodes int `json:"nodes,omitempty"`
	// InNodeCombinerOff disables the in-node combiner tier of a
	// multi-node run — the -innode-combiner=off ablation. Requires
	// Nodes >= 1. Output is byte-identical either way; only wire
	// traffic changes.
	InNodeCombinerOff bool `json:"innode_combiner_off,omitempty"`
	// Faults is a cliutil fault-plan string (e.g. "seed=7,read-err-every=5").
	Faults string `json:"faults,omitempty"`
	// Retries is a cliutil retry-policy string (e.g. "4" or "attempts=4,base=100us").
	Retries string `json:"retries,omitempty"`
	// EgressLanes, when >= 1, materializes the merged output across
	// that many concurrent extent writers after the merge (1 is the
	// serial-writer ablation; output is byte-identical at any lane
	// count). 0 skips output materialization.
	EgressLanes int `json:"egress_lanes,omitempty"`
	// EgressExtent is the egress extent size in bytes (default 256 KiB).
	EgressExtent int64 `json:"egress_extent,omitempty"`
	// Block is the records-per-block grouping of psum1 (default 256).
	Block int64 `json:"block,omitempty"`
	// Blocks is the total block count psum2 emits prefix sums for
	// (default: the upstream round's pair count when piped, else derived
	// from Size and Block as a standalone round-1 reference).
	Blocks int64 `json:"blocks,omitempty"`
	// TraceContexts, when positive, records the utilization trace of a
	// solo run normalized to that many hardware contexts (Result.Trace).
	TraceContexts int `json:"trace_contexts,omitempty"`
	// TraceBucket is the trace bucket width (default 100ms).
	TraceBucket time.Duration `json:"trace_bucket,omitempty"`
}

// Result summarizes a completed job: the output digest, the run's
// statistics and the app's report lines.
type Result struct {
	// Spec is the spec the job ran, defaults filled in.
	Spec        Spec `json:"spec"`
	OutputPairs int  `json:"output_pairs"`
	// Digest is the hex SHA-256 over the output pairs rendered one per
	// line as "key\tvalue\n" — identical runs produce identical digests
	// whether executed directly, solo, or on a shared engine.
	Digest string `json:"digest"`
	// Times is the Table II phase row; Allocs the per-phase allocation
	// line (empty on an engine, which cannot attribute process-wide
	// allocation to one job).
	Times  string `json:"times,omitempty"`
	Allocs string `json:"allocs,omitempty"`
	// Summary is the app's own description of its output.
	Summary []string    `json:"summary,omitempty"`
	Stats   supmr.Stats `json:"stats"`
	// Notes surfaces configuration caveats the run adapted to (engine
	// instruments disabled, memo ignoring the budget).
	Notes []string `json:"notes,omitempty"`
	// Trace is the utilization trace when Spec.TraceContexts was set.
	Trace *supmr.UtilTrace `json:"-"`
}

// Env is what a run needs besides its serializable Spec.
type Env struct {
	// Engine, when non-nil, submits the job to the shared engine
	// (admission, fair-share scheduling, budget carving); nil runs it
	// solo on a dedicated pool. Output is identical either way.
	Engine *supmr.Engine
	// Input, when non-nil, replaces the generated workload — the
	// zero-copy pipe internal/dag chains rounds with. An upstream job's
	// egressed output is newline-terminated "key\tvalue" text, so the
	// app must be able to consume piped text.
	Input supmr.Input
	// Upstream is the result of the round Input came from; apps derive
	// parameters from it (psum2 takes its block count).
	Upstream *Result
	// Literal keeps a zero Size, Seed, ChunkBytes, FileSize and Pattern
	// literal — an empty input, seed 0, whole-input ingest, empty files
	// and an empty pattern, the supmr CLI's flag meanings — instead of
	// selecting the spec defaults.
	Literal bool
}

// merges names the merge algorithms Spec.Merge accepts.
var merges = map[string]supmr.MergeAlgo{"pairwise": supmr.MergePairwise, "pway": supmr.MergePWay}

// Validate rejects malformed specs, and specs asking an app for a knob
// its capabilities lack, with a descriptive error. It fills in no
// defaults — normalization happens in Exec.
func (s Spec) Validate() error { return s.validate(use{}) }

// ValidatePiped is Validate for a round consuming a piped upstream
// output instead of its generated workload.
func (s Spec) ValidatePiped() error { return s.validate(use{piped: true}) }

// ValidateEngine is Validate for a submission to a shared engine.
func (s Spec) ValidateEngine() error { return s.validate(use{engine: true}) }

func (s Spec) validate(u use) error {
	if s.App == "" {
		return fmt.Errorf("jobspec: missing app")
	}
	a, ok := table[s.App]
	if !ok {
		names := make([]string, 0, len(table))
		for name := range table {
			names = append(names, name)
		}
		sort.Strings(names)
		return fmt.Errorf("jobspec: unknown app %q (want %s)", s.App, strings.Join(names, ", "))
	}
	switch s.Runtime {
	case "", "supmr", "traditional":
	default:
		return fmt.Errorf("jobspec: unknown runtime %q", s.Runtime)
	}
	if _, ok := merges[s.Merge]; s.Merge != "" && !ok {
		return fmt.Errorf("jobspec: unknown merge algorithm %q (want pairwise or pway)", s.Merge)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"size", s.Size}, {"chunk size", s.ChunkBytes}, {"budget", s.Budget}, {"bandwidth", s.BW},
		{"io_lanes", int64(s.IOLanes)}, {"prefetch_depth", int64(s.PrefetchDepth)},
		{"files", int64(s.Files)}, {"files_per_chunk", int64(s.FilesPerChunk)}, {"file_size", s.FileSize},
		{"weight", int64(s.Weight)}, {"memo_budget", s.MemoBudget}, {"node count", int64(s.Nodes)},
		{"egress_lanes", int64(s.EgressLanes)}, {"egress_extent", s.EgressExtent},
		{"block", s.Block}, {"blocks", s.Blocks},
	} {
		if f.v < 0 {
			return fmt.Errorf("jobspec: negative %s %d", f.name, f.v)
		}
	}
	traditional := s.Runtime == "traditional"
	switch {
	case s.Budget > 0 && traditional:
		return fmt.Errorf("jobspec: budget requires the supmr runtime (the traditional runtime ingests the whole input before mapping, so bounding the container would not bound the job)")
	case s.Memo && traditional:
		return fmt.Errorf("jobspec: memo requires the supmr runtime (the traditional runtime ingests the whole input as one chunk)")
	case s.Memo && u.piped:
		return fmt.Errorf("jobspec: memo is incompatible with a piped input (piped rounds hold no stable file identity to key the cache by)")
	case s.Memo && s.Files > 0:
		return fmt.Errorf("jobspec: memo requires a single-file input (multi-file chunk composition is not content-stable)")
	case s.MemoKey != "" && !s.Memo:
		return fmt.Errorf("jobspec: memo_key set without memo")
	case s.Nodes > 0 && traditional:
		return fmt.Errorf("jobspec: nodes requires the supmr runtime (each node runs the scale-up pipeline over its local chunks)")
	case s.Nodes > 0 && s.Memo:
		return fmt.Errorf("jobspec: nodes is incompatible with memo (multi-node runs shard chunks across node containers)")
	case s.InNodeCombinerOff && s.Nodes == 0:
		return fmt.Errorf("jobspec: innode_combiner_off requires nodes (the combiner tier only exists in multi-node runs)")
	}
	for _, r := range rules {
		if r.asks(s, u) && a.caps&r.need == 0 {
			return fmt.Errorf("jobspec: app %q cannot %s: %s", s.App, r.verb, lacks[r.need])
		}
	}
	if s.Faults != "" {
		if _, err := cliutil.ParseFaultPlan(s.Faults); err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
	}
	if s.Retries != "" {
		if _, err := cliutil.ParseRetryPolicy(s.Retries); err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
	}
	return nil
}

// withDefaults fills in the documented defaults of the fields left
// zero; literal keeps the zeros whose literal meaning the CLI defines.
func (s Spec) withDefaults(literal bool) Spec {
	if s.Runtime == "" {
		s.Runtime = "supmr"
	}
	if !literal {
		if s.Size == 0 {
			s.Size = 4 << 20
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		if s.ChunkBytes == 0 {
			s.ChunkBytes = 256 << 10
		}
		if s.FileSize == 0 {
			s.FileSize = 1 << 20
		}
		if s.Pattern == "" {
			s.Pattern = "ERROR"
		}
	}
	return s
}

// Run executes the spec, with its defaults applied, over the app's
// generated workload. With eng non-nil the job is submitted to the
// shared engine; with eng nil it runs solo on a dedicated pool — output
// and digest are identical either way. ctx cancellation aborts the job.
func Run(ctx context.Context, spec Spec, eng *supmr.Engine) (*Result, error) {
	res, _, err := Exec(ctx, spec, Env{Engine: eng})
	return res, err
}

// Exec validates spec for env, builds the app's device, workload, job
// and container from the app table and runs it. The returned
// EgressOutput is the materialized output when spec.EgressLanes was
// set, nil otherwise; callers chaining jobs feed it to the next round.
func Exec(ctx context.Context, spec Spec, env Env) (*Result, *supmr.EgressOutput, error) {
	u := use{piped: env.Input != nil, engine: env.Engine != nil}
	if err := spec.validate(u); err != nil {
		return nil, nil, err
	}
	a := table[spec.App]
	spec = spec.withDefaults(env.Literal)
	if a.defaults != nil {
		a.defaults(&spec, env)
	}
	if a.caps&blocksParam != 0 && spec.Blocks <= 0 {
		return nil, nil, fmt.Errorf("jobspec: %s needs blocks (the upstream round's block count)", spec.App)
	}

	clock := supmr.NewClock()
	dev := supmr.NewFastDevice(clock)
	if spec.BW > 0 {
		d, err := supmr.NewDisk("sim", float64(spec.BW), 0, clock)
		if err != nil {
			return nil, nil, err
		}
		dev = d
	}
	cfg := supmr.Config{
		Context:        ctx,
		Runtime:        supmr.RuntimeSupMR,
		Workers:        spec.Workers,
		ChunkBytes:     spec.ChunkBytes,
		FilesPerChunk:  spec.FilesPerChunk,
		Clock:          clock,
		AdaptiveChunks: spec.Adaptive,
		HybridChunks:   spec.Hybrid,
		IOLanes:        spec.IOLanes,
		PrefetchDepth:  spec.PrefetchDepth,
		Engine:         env.Engine,
		Tenant:         spec.Tenant,
		Weight:         spec.Weight,
		Nodes:          spec.Nodes,
		TraceContexts:  spec.TraceContexts,
		TraceBucket:    spec.TraceBucket,
	}
	off := false
	if spec.Runtime == "traditional" {
		cfg.Runtime = supmr.RuntimeTraditional
	}
	if m, ok := merges[spec.Merge]; ok {
		cfg.Merge = &m
	}
	if spec.RadixOff {
		cfg.RadixSort = &off
	}
	if spec.InNodeCombinerOff {
		cfg.InNodeCombiner = &off
	}
	if spec.Budget > 0 {
		cfg.MemoryBudget = spec.Budget
		cfg.SpillDevice = dev // spill contends with ingest for the same bandwidth
	}
	if spec.EgressLanes > 0 {
		cfg.EgressLanes = spec.EgressLanes
		cfg.EgressExtentBytes = spec.EgressExtent
		cfg.EgressDevice = dev // egress contends with ingest for the same bandwidth
	}
	if spec.Memo {
		cfg.Memo = true
		cfg.MemoBudget = spec.MemoBudget
		cfg.MemoKeySpace = spec.MemoKey
		if cfg.MemoKeySpace == "" {
			cfg.MemoKeySpace = spec.App
			if a.keySpace != nil {
				cfg.MemoKeySpace = a.keySpace(spec)
			}
		}
	}
	if spec.Faults != "" {
		plan, _ := cliutil.ParseFaultPlan(spec.Faults) // validated above
		cfg.Faults = supmr.NewFaultInjector(plan, clock)
	}
	if spec.Retries != "" {
		cfg.Retry, _ = cliutil.ParseRetryPolicy(spec.Retries) // validated above
	}

	src := source{file: env.Input}
	if src.file == nil {
		var err error
		if src, err = a.input(spec, dev, clock); err != nil {
			return nil, nil, err
		}
	}
	res, out, err := a.run(spec, src, cfg)
	if err != nil {
		return nil, nil, err
	}
	res.Spec = spec
	return res, out, nil
}

// Digest hashes key-sorted output pairs: hex SHA-256 over one
// "key\tvalue\n" line per pair, rendered by kv.AppendText exactly as
// egress renders them. Two runs of the same job produce the same digest
// exactly when their outputs are byte-identical under this rendering.
func Digest[K comparable, V any](pairs []supmr.Pair[K, V]) string {
	const flush = 32 << 10
	h := sha256.New()
	buf := make([]byte, 0, flush+256)
	for i := range pairs {
		buf = kv.AppendText(buf, &pairs[i])
		if len(buf) >= flush {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// DigestBytes hashes already-rendered output text. Egress renders
// pairs exactly as Digest does, so DigestBytes over a job's egressed
// bytes equals Digest over its pairs — the property the egress-lanes
// ablation gates on.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
