package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"supmr"
	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
	"supmr/internal/storage"
)

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{
	Text:      256 << 10,
	Tera:      256 << 10,
	Mix:       64 << 10,
	Grow:      8 << 10,
	GrowSteps: 2,
	Chunk:     32 << 10,
	MixChunk:  16 << 10,
	Warm:      64 << 10,
	DiskBW:    64 << 20,
	Budget:    16 << 10,
}

type benchFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// waitGoroutines fails the test if the goroutine count does not return
// to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEveryMetricPrinted runs every workload untraced and traced at a
// tiny size: each prints exactly the metrics BENCHMARK.json names, with
// their units, passes every output check and leaks no goroutines.
func TestEveryMetricPrinted(t *testing.T) {
	bf := loadBenchFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			base := runtime.NumGoroutine()
			o := options{workload: w, seed: 1, seconds: 0.2, trace: traced, sizes: tinySizes}
			if traced {
				o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			var log bytes.Buffer
			res, err := run(o, time.Now(), &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			} else {
				checkSpans(t, o.spans)
			}
			waitGoroutines(t, base)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		names[s.Name] = true
	}
	for _, n := range []string{"job", "apps.map", "chunk.readat", "container.reduce"} {
		if !names[n] {
			t.Errorf("no %s span in %v", n, names)
		}
	}
}

// sortBench builds a one-kind sort-egress bench over tiny input with
// the given reference digest and egress mutation.
func sortBench(t *testing.T, ref string, mutate func([]byte)) *bench {
	t.Helper()
	data := generate(tinySizes.Tera/100*100, supmr.TeraFill(7))
	clk := supmr.NewClock()
	d := supmr.NewFastDevice(clk)
	f, err := supmr.NewByteFile("sort", data, d)
	if err != nil {
		t.Fatal(err)
	}
	if ref == "" {
		ref, _, err = reference[string, uint64](supmr.SortJob(),
			supmr.NewHashContainer[string, uint64](64, supmr.HashString, nil), data, supmr.CRLFRecords)
		if err != nil {
			t.Fatal(err)
		}
	}
	s := &spec[string, uint64]{kind: "sort", job: supmr.SortJob(), newCont: supmr.SortContainer, input: f, ref: ref, mutate: mutate,
		cfg: supmr.Config{Runtime: supmr.RuntimeSupMR, Workers: workers, ChunkBytes: tinySizes.Chunk,
			Boundary: supmr.CRLFRecords, EgressLanes: lanes, EgressDevice: d, Clock: clk}}
	tk := s.task()
	return &bench{name: "sort-egress", seed: 1, clients: 1, kinds: []func(int) task{func(int) task { return tk }}}
}

// TestBadOutputCounted proves the output check fails a job whose
// reference is wrong or whose egressed bytes were corrupted.
func TestBadOutputCounted(t *testing.T) {
	cases := map[string]*bench{
		"control":          sortBench(t, "", nil),
		"wrong reference":  sortBench(t, "0000", nil),
		"corrupted egress": sortBench(t, "", func(b []byte) { b[len(b)/2] ^= 1 }),
	}
	for name, b := range cases {
		r := b.loop(50*time.Millisecond, nil, nil)
		want := len(r.outs)
		if name == "control" {
			want = 0
		}
		if got := r.failed(); got != want || len(r.outs) == 0 {
			t.Errorf("%s: %d of %d jobs failed, want %d", name, got, len(r.outs), want)
		}
	}
}

// TestDecoratorsKeepTraits checks that every decorator has exactly the
// optional traits of what it wraps.
func TestDecoratorsKeepTraits(t *testing.T) {
	tr := newTracer()
	jobTraits := func(j any) [4]bool {
		_, b := j.(kv.BytesApp[int64])
		_, c := j.(kv.Combiner[int64])
		_, f := j.(kv.FixedKeyApp[string])
		_, ca := j.(interface{ SetData(*chunk.Chunk) })
		if !b && !c {
			_, b = j.(kv.BytesApp[uint64])
			_, c = j.(kv.Combiner[uint64])
		}
		return [4]bool{b, c, f, ca}
	}
	for name, j := range map[string]any{
		"wordcount": supmr.WordCountJob(),
		"grep":      supmr.GrepJob("a"),
		"sort":      supmr.SortJob(),
	} {
		var w any
		var err error
		switch j := j.(type) {
		case supmr.Job[string, int64]:
			w, err = wrapJob(j, tr, 1)
		case supmr.Job[string, uint64]:
			w, err = wrapJob(j, tr, 1)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := jobTraits(w), jobTraits(j); got != want {
			t.Errorf("%s: decorator traits %v, job traits %v", name, got, want)
		}
	}
	if _, err := wrapJob[string, int64](plainJob{}, tr, 1); err == nil {
		t.Error("a job whose traits no decorator reproduces was accepted")
	}

	contTraits := func(c any) [3]bool {
		_, s := c.(container.PartitionSizer)
		_, f1 := c.(container.Fresher[string, int64])
		_, f2 := c.(container.Fresher[string, uint64])
		_, u := c.(container.Unspillable)
		return [3]bool{s, f1 || f2, u}
	}
	for name, c := range map[string]any{
		"flat":     supmr.WordCountContainer(8),
		"keyrange": supmr.SortContainer(),
		"grep":     supmr.GrepJob("a").NewContainer(),
	} {
		var w any
		var err error
		switch c := c.(type) {
		case supmr.Container[string, int64]:
			w, err = wrapCont(c, tr, 1)
		case supmr.Container[string, uint64]:
			w, err = wrapCont(c, tr, 1)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := contTraits(w), contTraits(c); got != want {
			t.Errorf("%s: decorator traits %v, container traits %v", name, got, want)
		}
	}

	hub := &traceHub{}
	clk := supmr.NewClock()
	disk, err := supmr.NewDisk("d", 1<<20, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []supmr.Device{disk, supmr.NewFastDevice(clk)} {
		w, err := wrapDevice(d, hub)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.(storage.Writer); !ok {
			t.Errorf("%T: decorator drops the write path", d)
		}
	}
	f, err := supmr.NewByteFile("f", []byte("a b\n"), disk)
	if err != nil {
		t.Fatal(err)
	}
	in, err := wrapInput(f, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := in.(chunk.IssueReader); !ok {
		t.Error("input decorator drops the two-phase read")
	}
}

// TestSecondSeed checks that another seed gives other inputs that still
// pass every output check, so claims can be confirmed on a held-out seed.
func TestSecondSeed(t *testing.T) {
	a := generate(tinySizes.Text, supmr.TextFill(1))
	b := generate(tinySizes.Text, supmr.TextFill(2))
	if bytes.Equal(a, b) {
		t.Fatal("seeds 1 and 2 generate the same text")
	}
	for _, w := range []string{"wc-mem", "engine-mix"} {
		res, err := run(options{workload: w, seed: 2, seconds: 0.1, sizes: tinySizes}, time.Now(), &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s seed 2: %d of %d jobs failed", w, res.Failed, res.Attempted)
		}
	}
}

// TestWholeRounds checks that an engine-mix window, however short, ends
// on a round boundary of every client's deck, so it runs each job kind
// equally often.
func TestWholeRounds(t *testing.T) {
	b, err := setup("engine-mix", tinySizes, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	deck := len(b.kinds)
	r := b.loop(time.Millisecond, nil, nil)
	if len(r.outs) == 0 || len(r.outs)%deck != 0 {
		t.Fatalf("%d jobs, want a positive multiple of the %d-job round", len(r.outs), deck)
	}
	got := map[string]int{}
	for _, o := range r.outs {
		got[o.kind]++
	}
	for _, next := range b.kinds {
		kind := next(0).kind
		if n := len(r.outs) / deck; got[kind] != n {
			t.Errorf("%s ran %d times in %d jobs, want %d", kind, got[kind], len(r.outs), n)
		}
	}
}

// plainJob has none of the optional traits.
type plainJob struct{}

func (plainJob) Map([]byte, supmr.Emitter[string, int64]) {}
func (plainJob) Reduce(string, []int64) int64             { return 0 }
func (plainJob) Less(a, b string) bool                    { return a < b }

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", seed: 1, seconds: 1, sizes: tinySizes}, time.Now(), &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
