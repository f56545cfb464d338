package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supmr"
	"supmr/internal/jobspec"
)

// The four workloads. Each stresses a different part of the pipeline:
//
//   - wc-mem: word count on an infinitely fast device. Map/combine
//     (apps, the FlatHash container, core map waves) is almost all of
//     the job: the CPU hot path with no IO wait.
//   - sort-egress: terasort records on a fast device with two egress
//     lanes. Unique keys make combining a no-op and bypass FlatHash;
//     radix runsort, the columnar p-way merge and egress dominate.
//   - wc-disk: the paper's Table II regime. The same text on a
//     throttled disk with two IO lanes, a prefetch ring and a memory
//     budget that spills to that disk: ingest is the bottleneck, map
//     hides behind it, and spill writes contend with ingest reads.
//   - engine-mix: a closed loop of two clients on one shared Engine
//     (the supmrd path), the only workload that loads the scheduler,
//     the shared executor and the memo cache.
var workloadNames = []string{"wc-mem", "sort-egress", "wc-disk", "engine-mix"}

// sizes fixes every input size and device parameter of a run.
type sizes struct {
	Text      int64   `json:"text_bytes"`      // wc-mem and wc-disk input
	Tera      int64   `json:"tera_bytes"`      // sort-egress input
	Mix       int64   `json:"mix_bytes"`       // engine-mix per-job input
	Grow      int64   `json:"mix_grow_bytes"`  // engine-mix memo append step
	GrowSteps int     `json:"mix_grow_steps"`  // appends before the memo text wraps
	Chunk     int64   `json:"chunk_bytes"`     // solo ingest chunk
	MixChunk  int64   `json:"mix_chunk_bytes"` // engine-mix ingest chunk
	Warm      int64   `json:"warm_bytes"`      // solo warm-up prefix
	DiskBW    float64 `json:"disk_bw"`         // wc-disk bandwidth, bytes/s
	Budget    int64   `json:"budget_bytes"`    // per-job spill budget
}

var fullSizes = sizes{
	Text:      64 << 20,
	Tera:      64 << 20,
	Mix:       4 << 20,
	Grow:      128 << 10,
	GrowSteps: 8,
	Chunk:     2 << 20,
	MixChunk:  1 << 20,
	Warm:      8 << 20,
	DiskBW:    32 << 20,
	Budget:    1 << 20,
}

const (
	workers = 2 // nproc on the reference host
	lanes   = 2 // IO and egress lanes
	clients = 2 // engine-mix closed-loop clients
)

// signature is what must not change when a job is traced: the output
// digest and the Report counters that reveal the path the job took.
type signature struct {
	Kind          string
	Digest        string
	MapWaves      int
	RadixRuns     int
	SpilledRuns   int
	MemoHits      int
	EgressExtents int
}

// outcome is one job as the benchmark saw it.
type outcome struct {
	kind       string
	inBytes    int64
	start, end time.Time
	err        error // run error, engine rejection or output mismatch
	alloc      int64 // TotalAlloc delta of the timed call (solo loops)
	times      supmr.PhaseTimes
	stats      supmr.Stats
	sig        signature
}

func (o outcome) seconds() float64 { return o.end.Sub(o.start).Seconds() }

// task runs one kind of job. run returns the timed outcome and the
// output check, which the caller runs outside the timed region; the
// check is nil when the job failed.
type task struct {
	kind       string
	run        func(tr *tracer, id int64) (outcome, func() (string, error))
	checkAlloc int64 // bytes one output check allocates
}

// spec is one job over one pre-generated input.
type spec[K comparable, V any] struct {
	kind    string
	job     supmr.Job[K, V]
	newCont func() supmr.Container[K, V]
	input   supmr.Input
	cfg     supmr.Config
	ref     string
	// mutate, when set, alters the egressed bytes before they are
	// checked; tests use it to prove a corrupted byte is caught.
	mutate func([]byte)
}

func (s *spec[K, V]) task() task {
	return task{kind: s.kind, run: s.run}
}

func (s *spec[K, V]) run(tr *tracer, id int64) (outcome, func() (string, error)) {
	o := outcome{kind: s.kind, inBytes: s.input.Size()}
	job, cont, in := s.job, s.newCont(), s.input
	if tr != nil {
		var err error
		if job, err = wrapJob(job, tr, id); err == nil {
			if cont, err = wrapCont(cont, tr, id); err == nil {
				in, err = wrapInput(in, tr, id)
			}
		}
		if err != nil {
			o.err = err
			return o, nil
		}
	}
	o.start = time.Now()
	rep, err := supmr.RunFile(job, in, cont, s.cfg)
	o.end = time.Now()
	if tr != nil {
		tr.add(span{Name: "job", Job: id, Start: int64(o.start.Sub(tr.epoch)), End: int64(o.end.Sub(tr.epoch))})
	}
	if err != nil {
		o.err = fmt.Errorf("%s: %w", s.kind, err)
		return o, nil
	}
	o.times, o.stats = rep.Times, rep.Stats
	o.sig = signature{
		Kind:          s.kind,
		MapWaves:      rep.Stats.MapWaves,
		RadixRuns:     rep.Stats.RadixRuns,
		SpilledRuns:   rep.Stats.SpilledRuns,
		MemoHits:      rep.Stats.MemoHits,
		EgressExtents: rep.Stats.EgressExtents,
	}
	return o, func() (string, error) { return s.check(rep) }
}

// check compares the job's output with the reference digest, and on an
// egressing job the materialized bytes too.
func (s *spec[K, V]) check(rep *supmr.Report[K, V]) (string, error) {
	if rep.Egress != nil {
		defer rep.Egress.Close()
	}
	d := jobspec.Digest(rep.Pairs)
	if d != s.ref {
		return d, fmt.Errorf("%s: output digest %.12s, reference %.12s", s.kind, d, s.ref)
	}
	if s.cfg.EgressLanes == 0 {
		return d, nil
	}
	if rep.Egress == nil {
		return d, fmt.Errorf("%s: no egressed output", s.kind)
	}
	b, err := rep.Egress.Bytes()
	if err != nil {
		return d, fmt.Errorf("%s: egress: %w", s.kind, err)
	}
	if s.mutate != nil {
		s.mutate(b)
	}
	if e := jobspec.DigestBytes(b); e != s.ref {
		return d, fmt.Errorf("%s: egressed digest %.12s, reference %.12s", s.kind, e, s.ref)
	}
	return d, nil
}

// reference digests job's output over data through the traditional
// runtime with the comparison sort and the pairwise merge, a path
// independent of the measured one. It also returns the bytes one
// Digest call over that output allocates.
func reference[K comparable, V any](job supmr.Job[K, V], cont supmr.Container[K, V], data []byte, b supmr.Boundary) (string, int64, error) {
	off := false
	rep, err := supmr.RunBytes(job, data, cont, supmr.Config{
		Runtime:   supmr.RuntimeTraditional,
		Workers:   workers,
		RadixSort: &off,
		Boundary:  b,
	})
	if err != nil {
		return "", 0, fmt.Errorf("reference: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := jobspec.Digest(rep.Pairs)
	runtime.ReadMemStats(&m1)
	return d, int64(m1.TotalAlloc - m0.TotalAlloc), nil
}

// generate materializes n bytes of a deterministic generator, filling
// two halves concurrently.
func generate(n int64, fill func(off int64, p []byte)) []byte {
	buf := make([]byte, n)
	half := n / 2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fill(0, buf[:half])
	}()
	fill(half, buf[half:])
	wg.Wait()
	return buf
}

// bench is one set-up workload, ready to run timed loops.
type bench struct {
	name     string
	seed     int64
	kinds    []func(client int) task // the job mix: a client's next task of each kind
	clients  int
	eng      *supmr.Engine
	closers  []func()
	probe    func(tr *tracer) ([]signature, error)
	genSec   float64
	genBytes int64
	env      map[string]any
	ids      atomic.Int64
}

func (b *bench) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	b.closers = nil
}

// dealer deals one client's job kinds: every round is a seeded shuffle
// of a deck holding each kind once, so whole rounds run every kind
// equally often and only the order follows the seed.
type dealer struct {
	client int
	rng    *rand.Rand
	deck   []int
	next   int
}

func (b *bench) dealer(client int) *dealer {
	d := &dealer{client: client, rng: rand.New(rand.NewPCG(uint64(b.seed), uint64(client)))}
	for i := range b.kinds {
		d.deck = append(d.deck, i)
	}
	d.next = len(d.deck)
	return d
}

// midRound reports whether the current round has undealt cards.
func (d *dealer) midRound() bool { return d.next < len(d.deck) }

func (b *bench) deal(d *dealer) task {
	if d.next == len(d.deck) {
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.next = 0
	}
	d.next++
	return b.kinds[d.deck[d.next-1]](d.client)
}

// gen times one input generation into b's generation totals.
func (b *bench) gen(n int64, fill func(off int64, p []byte)) []byte {
	start := time.Now()
	buf := generate(n, fill)
	b.genSec += time.Since(start).Seconds()
	b.genBytes += n
	return buf
}

// setup builds the named workload: generates its inputs from seed,
// computes the reference digests, constructs devices, engine and store,
// and warms up with untimed jobs. hub, when set, decorates the clock
// and devices for a traced run.
func setup(name string, sz sizes, seed int64, hub *traceHub) (*bench, error) {
	b := &bench{name: name, seed: seed, clients: 1, env: map[string]any{}}
	clk := supmr.NewClock()
	if hub != nil {
		clk = &tracedClock{inner: clk, hub: hub}
	}
	dev := func(d supmr.Device) (supmr.Device, error) {
		if hub == nil {
			return d, nil
		}
		return wrapDevice(d, hub)
	}
	var err error
	switch name {
	case "wc-mem", "wc-disk":
		err = setupWordCount(b, sz, seed, clk, dev)
	case "sort-egress":
		err = setupSort(b, sz, seed, clk, dev)
	case "engine-mix":
		err = setupMix(b, sz, seed, clk, dev)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

type devFunc func(supmr.Device) (supmr.Device, error)

func setupWordCount(b *bench, sz sizes, seed int64, clk supmr.Clock, dev devFunc) error {
	data := b.gen(sz.Text, supmr.TextFill(seed))
	ref, _, err := reference[string, int64](supmr.WordCountJob(), supmr.WordCountMapContainer(64), data, supmr.NewlineRecords)
	if err != nil {
		return err
	}
	cfg := supmr.Config{Runtime: supmr.RuntimeSupMR, Workers: workers, ChunkBytes: sz.Chunk, Clock: clk}
	var d supmr.Device
	if b.name == "wc-disk" {
		disk, err := supmr.NewDisk("disk", sz.DiskBW, 0, clk)
		if err != nil {
			return err
		}
		if d, err = dev(disk); err != nil {
			return err
		}
		cfg.IOLanes = lanes
		cfg.PrefetchDepth = 2
		cfg.MemoryBudget = sz.Budget
		cfg.SpillDevice = d
		b.env["device_bw"] = sz.DiskBW
	} else {
		var err error
		if d, err = dev(supmr.NewFastDevice(clk)); err != nil {
			return err
		}
		b.env["device_bw"] = "inf"
	}
	s, err := soloSpec(b, "wordcount", supmr.WordCountJob(), func() supmr.Container[string, int64] {
		return supmr.WordCountContainer(64)
	}, data, d, cfg, ref)
	if err != nil {
		return err
	}
	return warmSolo(b, s, data[:min(sz.Warm, sz.Text)], d)
}

func setupSort(b *bench, sz sizes, seed int64, clk supmr.Clock, dev devFunc) error {
	const rec = 100 // terasort record bytes
	data := b.gen(sz.Tera/rec*rec, supmr.TeraFill(uint64(seed)))
	ref, _, err := reference[string, uint64](supmr.SortJob(),
		supmr.NewHashContainer[string, uint64](64, supmr.HashString, nil), data, supmr.CRLFRecords)
	if err != nil {
		return err
	}
	d, err := dev(supmr.NewFastDevice(clk))
	if err != nil {
		return err
	}
	b.env["device_bw"] = "inf"
	cfg := supmr.Config{
		Runtime:      supmr.RuntimeSupMR,
		Workers:      workers,
		ChunkBytes:   sz.Chunk,
		Boundary:     supmr.CRLFRecords,
		EgressLanes:  lanes,
		EgressDevice: d,
		Clock:        clk,
	}
	s, err := soloSpec(b, "sort", supmr.SortJob(), supmr.SortContainer, data, d, cfg, ref)
	if err != nil {
		return err
	}
	return warmSolo(b, s, data[:min(sz.Warm/rec*rec, int64(len(data)))], d)
}

// soloSpec places data on d and makes the workload's only job kind.
func soloSpec[K comparable, V any](b *bench, kindName string, job supmr.Job[K, V], newCont func() supmr.Container[K, V], data []byte, d supmr.Device, cfg supmr.Config, ref string) (*spec[K, V], error) {
	f, err := supmr.NewByteFile(b.name, data, d)
	if err != nil {
		return nil, err
	}
	s := &spec[K, V]{kind: kindName, job: job, newCont: newCont, input: f, cfg: cfg, ref: ref}
	t := s.task()
	b.kinds = []func(int) task{func(int) task { return t }}
	b.probe = func(tr *tracer) ([]signature, error) {
		sig, err := runChecked(t, tr, b.ids.Add(1))
		return []signature{sig}, err
	}
	return s, nil
}

// warmSolo runs the workload's job once, untimed, over a prefix of its
// input, so heap growth and lazy set-up are paid before timing.
func warmSolo[K comparable, V any](b *bench, s *spec[K, V], prefix []byte, d supmr.Device) error {
	f, err := supmr.NewByteFile(b.name+"-warm", prefix, d)
	if err != nil {
		return err
	}
	w := *s
	w.input = f
	if o, _ := w.run(nil, 0); o.err != nil {
		return fmt.Errorf("warm-up: %w", o.err)
	}
	return nil
}

// runChecked runs t once and checks its output.
func runChecked(t task, tr *tracer, id int64) (signature, error) {
	o, check := t.run(tr, id)
	if o.err != nil {
		return o.sig, o.err
	}
	d, err := check()
	o.sig.Digest = d
	return o.sig, err
}

func setupMix(b *bench, sz sizes, seed int64, clk supmr.Clock, dev devFunc) error {
	b.clients = clients
	b.env["device_bw"] = "inf"
	text := b.gen(sz.Mix+int64(sz.GrowSteps)*sz.Grow, supmr.TextFill(seed))
	tera := b.gen(sz.Mix/100*100, supmr.TeraFill(uint64(seed)))
	base := text[:sz.Mix]
	patterns := grepPatterns(base)
	b.env["grep_patterns"] = patterns

	d, err := dev(supmr.NewFastDevice(clk))
	if err != nil {
		return err
	}
	store, err := supmr.NewMemoStore(supmr.MemoConfig{Device: d})
	if err != nil {
		return err
	}
	b.closers = append(b.closers, func() { _ = store.Close() }) // entries are in memory; nothing to flush
	eng := supmr.NewEngine(supmr.EngineConfig{
		Workers:      workers,
		IOLanes:      lanes,
		MemoryBudget: clients * sz.Budget,
		MaxJobs:      clients,
		Clock:        clk,
		Memo:         store,
	})
	b.eng = eng
	b.closers = append(b.closers, eng.Close)

	cfg := supmr.Config{Engine: eng, Runtime: supmr.RuntimeSupMR, ChunkBytes: sz.MixChunk}
	file := func(name string, data []byte) (supmr.Input, error) { return supmr.NewByteFile(name, data, d) }

	wcRef, wcAlloc, err := reference[string, int64](supmr.WordCountJob(), supmr.WordCountMapContainer(64), base, supmr.NewlineRecords)
	if err != nil {
		return err
	}
	wcIn, err := file("mix-text", base)
	if err != nil {
		return err
	}
	wcCont := func() supmr.Container[string, int64] { return supmr.WordCountContainer(64) }
	wc := &spec[string, int64]{kind: "wordcount", job: supmr.WordCountJob(), newCont: wcCont, input: wcIn, cfg: cfg, ref: wcRef}

	budgetCfg := cfg
	budgetCfg.MemoryBudget = sz.Budget
	budgetCfg.SpillDevice = d
	wcBudget := &spec[string, int64]{kind: "wordcount-budget", job: supmr.WordCountJob(), newCont: wcCont, input: wcIn, cfg: budgetCfg, ref: wcRef}

	sortRef, sortAlloc, err := reference[string, uint64](supmr.SortJob(),
		supmr.NewHashContainer[string, uint64](64, supmr.HashString, nil), tera, supmr.CRLFRecords)
	if err != nil {
		return err
	}
	sortIn, err := file("mix-tera", tera)
	if err != nil {
		return err
	}
	sortCfg := cfg
	sortCfg.Boundary = supmr.CRLFRecords
	srt := &spec[string, uint64]{kind: "sort", job: supmr.SortJob(), newCont: supmr.SortContainer, input: sortIn, cfg: sortCfg, ref: sortRef}

	grepJob := supmr.GrepJob(patterns...)
	grepRef, grepAlloc, err := reference[string, int64](grepJob, grepJob.NewMapContainer(), base, supmr.NewlineRecords)
	if err != nil {
		return err
	}
	grep := &spec[string, int64]{kind: "grep", job: grepJob, newCont: grepJob.NewContainer, input: wcIn, cfg: cfg, ref: grepRef}

	// Memo re-runs follow a log that grows by appends and then rotates:
	// step i of a generation sees the base plus i appended blocks, so its
	// content-defined chunks hit the cache except at the new tail. A new
	// generation (a fresh key space) starts cold, which keeps the hit
	// ratio steady however many re-runs a window holds. Each client walks
	// its own chain of key spaces, one step after the other, so which
	// chunks hit does not depend on how the two clients interleave.
	memoCfg := cfg
	memoCfg.Memo = true
	memoSpecs := make([]*spec[string, int64], sz.GrowSteps+1)
	memoAlloc := make([]int64, len(memoSpecs))
	for i := range memoSpecs {
		data := text[:sz.Mix+int64(i)*sz.Grow]
		ref, alloc, err := reference[string, int64](supmr.WordCountJob(), supmr.WordCountMapContainer(64), data, supmr.NewlineRecords)
		if err != nil {
			return err
		}
		in, err := file(fmt.Sprintf("mix-grow%d", i), data)
		if err != nil {
			return err
		}
		memoSpecs[i] = &spec[string, int64]{kind: "wordcount-memo", job: supmr.WordCountJob(), newCont: wcCont, input: in, cfg: memoCfg, ref: ref}
		memoAlloc[i] = alloc
	}
	memoRuns := make([]int, clients) // entry c is touched only by client c
	memoNext := func(client int) task {
		i := memoRuns[client]
		memoRuns[client]++
		m := *memoSpecs[i%len(memoSpecs)]
		m.cfg.MemoKeySpace = fmt.Sprintf("wordcount/%d/%d", client, i/len(memoSpecs))
		t := m.task()
		t.checkAlloc = memoAlloc[i%len(memoSpecs)]
		return t
	}
	fixed := func(s task, alloc int64) func(int) task {
		s.checkAlloc = alloc
		return func(int) task { return s }
	}
	// The mix is synthetic, not measured supmrd traffic: one job of each
	// kind per round, which assumes no proportions.
	b.kinds = []func(int) task{
		fixed(wc.task(), wcAlloc),
		fixed(srt.task(), sortAlloc),
		fixed(grep.task(), grepAlloc),
		fixed(wcBudget.task(), wcAlloc),
		memoNext,
	}

	// Warm-up: every kind once; the memo runs open each client's first
	// generation.
	warm := []task{wc.task(), srt.task(), grep.task(), wcBudget.task()}
	for c := range clients {
		warm = append(warm, memoNext(c))
	}
	for _, t := range warm {
		if _, err := runChecked(t, nil, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	// The probe runs each kind alone; the memo kind runs cold and then
	// warm on a private store, so its counters do not depend on what the
	// shared store holds.
	b.probe = func(tr *tracer) ([]signature, error) {
		var sigs []signature
		for _, t := range []task{wc.task(), srt.task(), grep.task(), wcBudget.task()} {
			sig, err := runChecked(t, tr, b.ids.Add(1))
			if err != nil {
				return sigs, err
			}
			sigs = append(sigs, sig)
		}
		private, err := supmr.NewMemoStore(supmr.MemoConfig{Device: d})
		if err != nil {
			return sigs, err
		}
		defer private.Close()
		m := *memoSpecs[len(memoSpecs)-1]
		m.cfg.MemoStore = private
		for range 2 {
			sig, err := runChecked(m.task(), tr, b.ids.Add(1))
			if err != nil {
				return sigs, err
			}
			sigs = append(sigs, sig)
		}
		return sigs, nil
	}
	return nil
}

// grepPatterns picks three words of the text at fixed fractions of its
// length, so the patterns match and follow the seed.
func grepPatterns(text []byte) []string {
	var out []string
	for _, frac := range []int{5, 50, 95} {
		i := len(text) * frac / 100
		for i > 0 && text[i-1] != ' ' && text[i-1] != '\n' {
			i--
		}
		j := i
		for j < len(text) && text[j] != ' ' && text[j] != '\n' {
			j++
		}
		if j > i {
			out = append(out, string(text[i:j]))
		}
	}
	return out
}
