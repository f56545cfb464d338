package supmr

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"supmr/internal/egress"
	"supmr/internal/exec"
	"supmr/internal/workload"
)

// Facade-level tests of the parallel egress path: Config.EgressLanes
// materializes the merged output, byte-identical at any lane count,
// with the egress phase and counters surfaced in the report.

func egressInput(t *testing.T) []byte {
	t.Helper()
	data := make([]byte, 512<<10)
	TextFill(11)(0, data)
	return data
}

func runEgressWC(t *testing.T, data []byte, cfg Config) *Report[string, int64] {
	t.Helper()
	cfg.Runtime = RuntimeSupMR
	if cfg.ChunkBytes == 0 {
		cfg.ChunkBytes = 64 << 10
	}
	rep, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func pairDigest[K comparable, V any](pairs []Pair[K, V]) [32]byte {
	h := sha256.New()
	for _, p := range pairs {
		fmt.Fprintf(h, "%v\t%v\n", p.Key, p.Val)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestEgressBytesHashToOutputDigest(t *testing.T) {
	data := egressInput(t)
	rep := runEgressWC(t, data, Config{EgressLanes: 2, EgressExtentBytes: 8 << 10})
	if rep.Egress == nil {
		t.Fatal("EgressLanes set but Report.Egress is nil")
	}
	out, err := rep.Egress.Bytes()
	if err != nil {
		t.Fatalf("Egress.Bytes: %v", err)
	}
	if sha256.Sum256(out) != pairDigest(rep.Pairs) {
		t.Fatal("egressed bytes do not hash to the pair digest")
	}
	if rep.Stats.EgressBytes != int64(len(out)) {
		t.Errorf("EgressBytes = %d, egressed %d", rep.Stats.EgressBytes, len(out))
	}
	if rep.Stats.EgressExtents != rep.Egress.Extents() || rep.Stats.EgressExtents < 2 {
		t.Errorf("EgressExtents = %d, output extents = %d", rep.Stats.EgressExtents, rep.Egress.Extents())
	}
	if !strings.Contains(rep.Times.String(), "egress") {
		t.Errorf("phase times missing egress: %s", rep.Times)
	}
	if eg := rep.Times.Get(PhaseEgress); eg <= 0 || rep.Times.Total < eg {
		t.Errorf("total %v does not cover egress %v", rep.Times.Total, eg)
	}
}

func TestEgressLaneCountsByteIdentical(t *testing.T) {
	data := egressInput(t)
	var ref []byte
	var refMan []byte
	for _, lanes := range []int{1, 2, 4} {
		rep := runEgressWC(t, data, Config{EgressLanes: lanes, EgressExtentBytes: 8 << 10})
		out, err := rep.Egress.Bytes()
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		man := rep.Egress.Manifest().Encode()
		if lanes == 1 {
			ref, refMan = out, man
			continue
		}
		if !bytes.Equal(out, ref) {
			t.Fatalf("lanes=%d: egress differs from the serial writer", lanes)
		}
		if !bytes.Equal(man, refMan) {
			t.Fatalf("lanes=%d: manifest differs from the serial writer", lanes)
		}
	}
}

func TestEgressLaneAttribution(t *testing.T) {
	data := egressInput(t)
	rep := runEgressWC(t, data, Config{IOLanes: 2, EgressLanes: 4, EgressExtentBytes: 4 << 10})
	var sum int64
	for _, b := range rep.Stats.EgressLaneBytes {
		sum += b
	}
	if sum != rep.Stats.EgressBytes {
		t.Errorf("lane bytes sum %d, egressed %d (per-lane: %v)", sum, rep.Stats.EgressBytes, rep.Stats.EgressLaneBytes)
	}
	if len(rep.Stats.EgressLaneBytes) != 4 {
		t.Errorf("lane count = %d, want the widened pool's 4", len(rep.Stats.EgressLaneBytes))
	}
	if rep.Stats.EgressBusy <= 0 {
		t.Errorf("EgressBusy = %v, want > 0", rep.Stats.EgressBusy)
	}
}

func TestEgressUnderChaosMatchesClean(t *testing.T) {
	data := egressInput(t)
	clean := runEgressWC(t, data, Config{EgressLanes: 4, EgressExtentBytes: 8 << 10})
	cleanBytes, err := clean.Egress.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	clock := NewClock()
	faulted := runEgressWC(t, data, Config{
		EgressLanes: 4, EgressExtentBytes: 8 << 10, Clock: clock,
		Faults: NewFaultInjector(FaultPlan{Seed: 9, WriteErrProb: 0.2, ReadErrEvery: 7}, clock),
		Retry:  RetryPolicy{MaxAttempts: 8},
	})
	fb, err := faulted.Egress.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, cleanBytes) {
		t.Fatal("faulted egress diverged from clean run")
	}
	if faulted.Stats.Faults.Injected == 0 || faulted.Stats.Faults.Recovered == 0 {
		t.Errorf("chaos run exercised no faults: %+v", faulted.Stats.Faults)
	}
}

func TestEgressOnEngine(t *testing.T) {
	data := egressInput(t)
	solo := runEgressWC(t, data, Config{EgressLanes: 2, EgressExtentBytes: 8 << 10})
	soloBytes, err := solo.Egress.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{Workers: 4, MaxJobs: 2})
	defer e.Close()
	eng := runEgressWC(t, data, Config{Engine: e, EgressLanes: 2, EgressExtentBytes: 8 << 10})
	engBytes, err := eng.Egress.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(engBytes, soloBytes) {
		t.Fatal("engine-mode egress differs from solo")
	}
	if eng.Stats.EgressBytes != solo.Stats.EgressBytes {
		t.Errorf("engine EgressBytes %d, solo %d", eng.Stats.EgressBytes, solo.Stats.EgressBytes)
	}
}

func TestEgressConfigValidation(t *testing.T) {
	data := []byte("a b c\n")
	if _, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(2), Config{EgressLanes: -1}); err == nil {
		t.Error("negative EgressLanes accepted")
	}
	if _, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(2), Config{EgressLanes: 1, EgressExtentBytes: -5}); err == nil {
		t.Error("negative EgressExtentBytes accepted")
	}
	rep, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Egress != nil || rep.Stats.EgressBytes != 0 {
		t.Error("egress ran without EgressLanes")
	}
}

// renderRef is the serial reference rendering of pairs: one fmt
// "%v\t%v\n" line per pair, and the manifest a serial single-lane
// writer cuts from those bytes at extent size ext.
func renderRef[K comparable, V any](t *testing.T, pairs []Pair[K, V], ext int64) ([]byte, *egress.Output) {
	t.Helper()
	var ref []byte
	for _, p := range pairs {
		ref = fmt.Appendf(ref, "%v\t%v\n", p.Key, p.Val)
	}
	pool := exec.NewLocal(1)
	defer pool.Close()
	w, err := egress.NewWriter(egress.Config{Pool: pool, Lanes: 1, ExtentBytes: ext})
	if err != nil {
		t.Fatal(err)
	}
	w.Write(ref)
	out, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return ref, out
}

// TestEgressParallelRenderByteIdentical holds the windowed parallel
// render to the serial reference: at every worker count, lane count and
// extent size, for an empty output, one shorter than a render block and
// one spanning many windows, the stitched bytes, manifest and egress
// counters equal a serial fmt rendering cut by a one-lane writer (and
// so hash to pairDigest; jobspec's TestEgressedBytesHashToDigest holds
// DigestBytes == Digest on the same axes).
func TestEgressParallelRenderByteIdentical(t *testing.T) {
	defer func(n int) { renderBlockPairs = n }(renderBlockPairs)
	renderBlockPairs = 7 // 150 records: 22 blocks, several windows at 4 workers
	for _, records := range []int{0, 5, 150} {
		data := make([]byte, records*workload.TeraRecordSize)
		TeraFill(3)(0, data)
		for _, ext := range []int64{1, 37, 64 << 10, 0} {
			var ref []byte
			var refOut *egress.Output
			for _, workers := range []int{1, 2, 4} {
				for _, lanes := range []int{1, 4} {
					name := fmt.Sprintf("records=%d/extent=%d/workers=%d/lanes=%d", records, ext, workers, lanes)
					rep, err := RunBytes[string, uint64](SortJob(), data, SortContainer(), Config{
						Runtime: RuntimeSupMR, Workers: workers, ChunkBytes: 4 << 10, Boundary: CRLFRecords,
						EgressLanes: lanes, EgressExtentBytes: ext,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(rep.Pairs) != records {
						t.Fatalf("%s: %d output pairs", name, len(rep.Pairs))
					}
					if refOut == nil {
						ref, refOut = renderRef(t, rep.Pairs, ext)
						defer refOut.Close()
					}
					out, err := rep.Egress.Bytes()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(out, ref) {
						t.Fatalf("%s: egressed bytes differ from the serial render", name)
					}
					if !bytes.Equal(rep.Egress.Manifest().Encode(), refOut.Manifest().Encode()) {
						t.Fatalf("%s: manifest differs from the serial writer's", name)
					}
					if rep.Stats.EgressBytes != int64(len(ref)) || rep.Stats.EgressExtents != refOut.Extents() {
						t.Fatalf("%s: egress=%dB/%d, serial render %dB/%d", name,
							rep.Stats.EgressBytes, rep.Stats.EgressExtents, len(ref), refOut.Extents())
					}
					rep.Egress.Close()
				}
			}
		}
	}
}

// BenchmarkEgressRender is the per-layer explainer for the egress
// phase: it renders merged sort output into a two-lane egress writer
// (no device) and reports ns and allocs per pair, for the replaced
// serial fmt rendering and for the parallel kv.AppendText render.
func BenchmarkEgressRender(b *testing.B) {
	const records = 100_000
	data := make([]byte, records*workload.TeraRecordSize)
	TeraFill(7)(0, data)
	rep, err := RunBytes[string, uint64](SortJob(), data, SortContainer(), Config{Boundary: CRLFRecords})
	if err != nil {
		b.Fatal(err)
	}
	pairs := rep.Pairs
	pool := exec.NewLocal(runtime.GOMAXPROCS(0))
	defer pool.Close()
	run := func(b *testing.B, render func(w *egress.Writer) error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w, err := egress.NewWriter(egress.Config{Pool: pool, Lanes: 2})
			if err != nil {
				b.Fatal(err)
			}
			if err := render(w); err != nil {
				b.Fatal(err)
			}
			out, err := w.Close()
			if err != nil {
				b.Fatal(err)
			}
			out.Close()
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		n := float64(b.N) * float64(len(pairs))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/pair")
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/pair")
	}
	b.Run("fmt-serial", func(b *testing.B) {
		run(b, func(w *egress.Writer) error {
			bw := bufio.NewWriterSize(w, 64<<10)
			for _, p := range pairs {
				fmt.Fprintf(bw, "%v\t%v\n", p.Key, p.Val)
			}
			return bw.Flush()
		})
	})
	b.Run("kv-parallel", func(b *testing.B) {
		run(b, func(w *egress.Writer) error { return renderEgress(pool, pairs, w) })
	})
}
