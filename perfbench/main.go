// Command perfbench is the repository's whole-job benchmark. It runs one
// workload (see workloads.go) through the public supmr API for a fixed
// time, checks every job's output against a reference digest, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as the last line of its output:
//
//	bash perfbench/run.sh --workload wc-mem --seed 1 --seconds 15 --trace 0
//
// Inputs are generated from the seed during set-up and handed to the
// program as bytes, so no generator runs inside a timed job.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"supmr"
	"supmr/internal/metrics"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	spans    string // traced runs write their spans here ("" skips)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	o := options{sizes: fullSizes}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: wc-mem, sort-egress, wc-disk or engine-mix")
	fs.Int64Var(&o.seed, "seed", 1, "input and job-mix seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if o.trace {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	res, err := run(o, start, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up setupReps times, runs the timed loop(s) and
// returns the result. Progress and the environment go to log.
func run(o options, start time.Time, log io.Writer) (*result, error) {
	var hub *traceHub
	if o.trace {
		hub = &traceHub{}
	}
	var (
		b            *bench
		setups, gens []float64
		genBytes     int64
	)
	for range setupReps {
		t0 := start
		if b != nil {
			b.close()
			runtime.GC() // every set-up starts from a collected heap, as the first does
			t0 = time.Now()
		}
		var err error
		if b, err = setup(o.workload, o.sizes, o.seed, hub); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, b.genSec)
		genBytes = b.genBytes
	}
	defer b.close()
	logEnv(log, o, b)

	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	d := time.Duration(o.seconds * float64(time.Second))
	var timed loopResult
	if !o.trace {
		timed = b.loop(d, nil, nil)
		endToEnd(timed, median(setups), b.clients == 1, put)
	} else {
		res.Attempted++
		if err := compareProbes(b, hub); err != nil {
			fmt.Fprintf(log, "perfbench: %v\n", err)
			res.Failed++
		}
		// Untraced and traced windows alternate, so drift over the run
		// does not land on one side of trace.overhead_frac.
		var plain loopResult
		tr := newTracer()
		for i := range 4 {
			if i%2 == 0 {
				plain.add(b.loop(d/4, nil, nil))
				continue
			}
			hub.tr.Store(tr)
			timed.add(b.loop(d/4, tr, hub))
			hub.tr.Store(nil)
		}
		gen := median(gens) // moves setup_s on every workload
		put("workload.gen_s", "s", gen)
		put("workload.gen_mbps", "MiB/s", float64(genBytes)/(1<<20)/gen)
		perLayer(timed, tr, put)
		put("trace.overhead_frac", "ratio", ratio(median(timed.latencies()), median(plain.latencies()))-1)
		res.Attempted += len(plain.outs)
		res.Failed += plain.failed()
		if o.spans != "" {
			if err := tr.writeSpans(o.spans); err != nil {
				return nil, err
			}
		}
	}
	res.Attempted += len(timed.outs)
	res.Failed += timed.failed()
	res.Correct = res.Failed == 0
	for _, out := range timed.outs {
		if out.err != nil {
			fmt.Fprintf(log, "perfbench: job failed: %v\n", out.err)
			break
		}
	}
	fmt.Fprintf(log, "perfbench summary workload=%s seed=%d samples=%d failed=%d failed_frac=%.4f setup_s=%v\n",
		o.workload, o.seed, len(timed.outs), res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), setups)
	return res, nil
}

// compareProbes runs the workload's probe jobs untraced and then traced
// and fails unless both pass their output checks with identical digests
// and counters; a decorator that changed them would measure a different
// program.
func compareProbes(b *bench, hub *traceHub) error {
	plain, err := b.probe(nil)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	tr := newTracer()
	hub.tr.Store(tr)
	traced, err := b.probe(tr)
	hub.tr.Store(nil)
	if err != nil {
		return fmt.Errorf("traced probe: %w", err)
	}
	if !reflect.DeepEqual(plain, traced) {
		return fmt.Errorf("traced probe %+v differs from untraced %+v", traced, plain)
	}
	return nil
}

func logEnv(w io.Writer, o options, b *bench) {
	env := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"workers":     workers,
		"lanes":       lanes,
		"clients":     b.clients,
		"sizes":       o.sizes,
		"input_bytes": b.genBytes,
	}
	for k, v := range b.env {
		env[k] = v
	}
	line, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Fprintf(w, "perfbench env %s\n", line)
}

// loopResult is one timed window.
type loopResult struct {
	outs     []outcome
	allocJob float64 // heap bytes allocated per job, output checks excluded
	// Engine counter deltas over the window.
	rejected, chunkGets, chunkReuses int64
}

// add folds another window of the same kind into r.
func (r *loopResult) add(o loopResult) {
	r.outs = append(r.outs, o.outs...)
	r.rejected += o.rejected
	r.chunkGets += o.chunkGets
	r.chunkReuses += o.chunkReuses
}

// loop runs the workload's closed loop for d: every client submits its
// next job when the previous one has been checked. Jobs that start
// before the deadline run to completion, and each client runs at least
// one and finishes its round of the deck, so every window runs the mix
// in its stated proportions.
func (b *bench) loop(d time.Duration, tr *tracer, hub *traceHub) loopResult {
	var (
		res    loopResult
		mu     sync.Mutex
		wg     sync.WaitGroup
		m0, m1 runtime.MemStats
	)
	var eng0 supmr.EngineStats
	if b.eng != nil {
		eng0 = b.eng.Stats()
	}
	runtime.GC() // set-up's garbage is not the window's
	deadline := time.Now().Add(d)
	runtime.ReadMemStats(&m0)
	for c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deck := b.dealer(c)
			var local []outcome
			for len(local) == 0 || time.Now().Before(deadline) || deck.midRound() {
				t := b.deal(deck)
				id := b.ids.Add(1)
				if hub != nil && b.clients == 1 {
					hub.job.Store(id)
				}
				var a0, a1 runtime.MemStats
				if b.clients == 1 {
					// Start every solo job from a collected heap, so it
					// does not pay for the garbage of set-up, the previous
					// job or its output check.
					runtime.GC()
					runtime.ReadMemStats(&a0)
				}
				o, check := t.run(tr, id)
				if b.clients == 1 {
					runtime.ReadMemStats(&a1)
					o.alloc = int64(a1.TotalAlloc - a0.TotalAlloc)
				} else {
					o.alloc = -t.checkAlloc
				}
				if check != nil {
					var err error
					if o.sig.Digest, err = check(); err != nil {
						o.err = err
					}
				}
				local = append(local, o)
			}
			mu.Lock()
			res.outs = append(res.outs, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	if b.eng != nil {
		eng1 := b.eng.Stats()
		res.rejected = eng1.Rejected - eng0.Rejected
		res.chunkGets = eng1.ChunkGets - eng0.ChunkGets
		res.chunkReuses = eng1.ChunkReuses - eng0.ChunkReuses
	}
	var total int64
	for _, o := range res.outs {
		total += o.alloc
	}
	if b.clients > 1 {
		// Concurrent jobs share one heap: take the window's delta less
		// what the output checks allocated.
		total += int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	res.allocJob = ratio(float64(total), float64(len(res.outs)))
	return res
}

func (r loopResult) failed() int {
	n := 0
	for _, o := range r.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// ok returns the jobs that completed with correct output.
func (r loopResult) ok() []outcome {
	var out []outcome
	for _, o := range r.outs {
		if o.err == nil {
			out = append(out, o)
		}
	}
	return out
}

func (r loopResult) latencies() []float64 {
	var l []float64
	for _, o := range r.ok() {
		l = append(l, o.seconds())
	}
	return l
}

// loadSeconds is the wall time during which at least one job was in
// flight: the union of the jobs' intervals, so the clients' output
// checks between jobs do not count as load time.
func (r loopResult) loadSeconds() float64 {
	iv := append([]outcome(nil), r.outs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start.Before(iv[j].start) })
	var total time.Duration
	var cur0, cur1 time.Time
	for i, o := range iv {
		if i > 0 && !o.start.After(cur1) {
			if o.end.After(cur1) {
				cur1 = o.end
			}
			continue
		}
		total += cur1.Sub(cur0)
		cur0, cur1 = o.start, o.end
	}
	return (total + cur1.Sub(cur0)).Seconds()
}

// endToEnd derives the user-visible metrics of an untraced window.
func endToEnd(r loopResult, setup float64, solo bool, put func(string, string, float64)) {
	lat := r.latencies()
	p50 := median(lat)
	put("job_s_p50", "s", p50)
	put("job_s_p95", "s", quantile(lat, 0.95))
	var in int64
	ok := r.ok()
	for _, o := range ok {
		in += o.inBytes
	}
	load := r.loadSeconds()
	if solo && len(ok) > 0 {
		// One job over one input: the input rate of the median job.
		put("input_mbps", "MiB/s", ratio(float64(ok[0].inBytes)/(1<<20), p50))
	} else {
		put("input_mbps", "MiB/s", ratio(float64(in)/(1<<20), load))
	}
	put("jobs_per_s", "1/s", ratio(float64(len(ok)), load))
	put("alloc_mb", "MB", r.allocJob/1e6)
	put("setup_s", "s", setup)
}

// execLabels are the executor's task labels the trace reports.
var execLabels = []string{"ingest", "map", "reduce", "sort", "merge", "spill", "memo", "egress"}

// perLayer derives the per-layer metrics of a traced window: per-job
// means of the decorators' counters and of the Reports' phases and
// statistics. The comments name the end-to-end metric each group should
// move, and on which workload; a change claimed for one layer should
// show there first. Times summed over concurrent workers or lanes can
// exceed the job's wall time.
func perLayer(r loopResult, tr *tracer, put func(string, string, float64)) {
	ok := r.ok()
	n := float64(max(len(ok), 1))
	per := func(v int64) float64 { return float64(v) / n }
	sec := func(ns int64) float64 { return float64(ns) / 1e9 / n }

	// job_s_p50 on wc-disk; about zero on wc-mem.
	put("storage.wait_s", "s/job", sec(tr.waitNS.Load()))
	put("storage.waits", "count/job", per(tr.waits.Load()))
	put("storage.read_bytes", "B/job", per(tr.readBytes.Load()))
	put("storage.write_bytes", "B/job", per(tr.writeBytes.Load()))
	// job_s_p50 on wc-disk.
	put("chunk.readat_calls", "count/job", per(tr.readAtCalls.Load()))
	put("chunk.readat_s", "s/job", sec(tr.readAtNS.Load()))
	// job_s_p50 and alloc_mb on wc-mem; no change predicted on wc-disk.
	put("apps.map_calls", "count/job", per(tr.mapCalls.Load()))
	put("apps.map_s", "s/job", sec(tr.mapNS.Load()))
	put("apps.map_mbps", "MiB/s", ratio(float64(tr.mapIn.Load())/(1<<20), float64(tr.mapNS.Load())/1e9))
	put("apps.reduce_calls", "count/job", per(tr.reduceCalls.Load()))
	put("apps.reduce_s", "s/job", sec(tr.reduceNS.Load()))
	// job_s_p50 on wc-mem; resets also on wc-disk.
	put("container.entries", "count/job", per(tr.entries.Load()))
	put("container.reduce_s", "s/job", sec(tr.contReduceNS.Load()))
	put("container.resets", "count/job", per(tr.resets.Load()))

	var s struct {
		stall, queue, residual                   time.Duration
		hits, misses, waves, runs, radix, spills int64
		prefetch, extents                        int64
		saved, egBytes, spillBytes               int64
		egBusy, egStall                          time.Duration
	}
	tasks := map[string]metrics.TaskStats{}
	var phases [metrics.PhaseCleanup + 1]time.Duration
	for _, o := range ok {
		st := o.stats
		s.stall += st.IngestStall
		s.prefetch += int64(st.PrefetchHits)
		s.waves += int64(st.MapWaves)
		s.runs += int64(st.Runs)
		s.radix += int64(st.RadixRuns)
		s.spills += int64(st.SpilledRuns)
		s.spillBytes += st.SpilledBytes
		s.hits += int64(st.MemoHits)
		s.misses += int64(st.MemoMisses)
		s.saved += st.MemoBytesSaved
		s.egBytes += st.EgressBytes
		s.extents += int64(st.EgressExtents)
		s.egBusy += st.EgressBusy
		s.egStall += st.EgressStall
		for label, ts := range st.Tasks {
			t := tasks[label]
			t.Add(ts)
			tasks[label] = t
		}
		wall := o.end.Sub(o.start)
		s.queue += wall - o.times.Total
		s.residual += wall
		for p := range phases {
			d := o.times.Get(metrics.Phase(p))
			phases[p] += d
			s.residual -= d
		}
	}
	// job_s_p50 on wc-disk.
	put("core.ingest_stall_s", "s/job", sec(int64(s.stall)))
	put("core.prefetch_hits", "count/job", per(s.prefetch))
	put("core.map_waves", "count/job", per(s.waves))
	// job_s_p50 on the workload where the label dominates.
	for _, l := range execLabels {
		t := tasks[l]
		put("exec."+l+".tasks", "count/job", per(int64(t.Tasks)))
		put("exec."+l+".busy_s", "s/job", sec(int64(t.Busy)))
		put("exec."+l+".queue_wait_s", "s/job", sec(int64(t.QueueWait)))
	}
	ph := func(ps ...metrics.Phase) float64 {
		var d time.Duration
		for _, p := range ps {
			d += phases[p]
		}
		return sec(int64(d))
	}
	// job_s_p50 on the workload where the phase is largest. The residual
	// is the outside-timed wall time the Report's phases do not cover.
	put("phase.read_map_s", "s/job", ph(metrics.PhaseRead, metrics.PhaseMap, metrics.PhaseReadMap))
	put("phase.spill_s", "s/job", ph(metrics.PhaseSpill))
	put("phase.memo_s", "s/job", ph(metrics.PhaseMemo))
	put("phase.reduce_s", "s/job", ph(metrics.PhaseReduce))
	put("phase.runsort_s", "s/job", ph(metrics.PhaseRunSort))
	put("phase.merge_s", "s/job", ph(metrics.PhaseMerge))
	put("phase.egress_s", "s/job", ph(metrics.PhaseEgress))
	put("phase.residual_s", "s/job", sec(int64(s.residual)))
	// job_s_p50 and alloc_mb on sort-egress.
	put("sortalgo.runs", "count/job", per(s.runs))
	put("sortalgo.radix_runs", "count/job", per(s.radix))
	put("egress.bytes", "B/job", per(s.egBytes))
	put("egress.extents", "count/job", per(s.extents))
	put("egress.busy_s", "s/job", sec(int64(s.egBusy)))
	put("egress.stall_s", "s/job", sec(int64(s.egStall)))
	// job_s_p50 and alloc_mb on wc-disk.
	put("spill.runs", "count/job", per(s.spills))
	put("spill.bytes", "B/job", per(s.spillBytes))
	// jobs_per_s and job_s_p50 on engine-mix.
	put("memo.hits", "count/job", per(s.hits))
	put("memo.misses", "count/job", per(s.misses))
	put("memo.hit_ratio", "ratio", ratio(float64(s.hits), float64(s.hits+s.misses)))
	put("memo.bytes_saved", "B/job", per(s.saved))
	// job_s_p95 and jobs_per_s on engine-mix. queue_s is the wall time
	// outside Report.Times.Total: admission and stream set-up.
	put("sched.queue_s", "s/job", sec(int64(s.queue)))
	put("sched.rejected", "count", float64(r.rejected))
	put("sched.chunk_reuse_ratio", "ratio", ratio(float64(r.chunkReuses), float64(r.chunkGets)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v (0 when empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
