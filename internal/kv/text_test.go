package kv_test

import (
	"fmt"
	"math"
	"testing"

	"supmr/internal/apps"
	"supmr/internal/kv"
)

// sprintLine is the reference rendering AppendText must reproduce.
func sprintLine(k, v any) string { return fmt.Sprintf("%v\t%v\n", k, v) }

// checkLine renders p through AppendText (after a non-empty prefix, so
// appending — not overwriting — is exercised) and compares with fmt.
func checkLine[K, V any](t *testing.T, p kv.Pair[K, V]) {
	t.Helper()
	got := string(kv.AppendText([]byte("x"), &p))
	if want := "x" + sprintLine(p.Key, p.Val); got != want {
		t.Errorf("AppendText(%#v) = %q, fmt renders %q", p, got, want)
	}
}

func TestAppendTextMatchesFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, -2.25, 1e20, 1e21, 1e-4, 1e-5, 1e-7,
		123456789, 1.0 / 3, math.Pi, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3, // subnormals
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, f := range floats {
		checkLine(t, kv.Pair[float64, float64]{Key: f, Val: -f})
		checkLine(t, kv.Pair[int, float64]{Key: 7, Val: f})
	}
	for _, s := range []string{"", "word", "tab\tin", "new\nline", "\x00\xff\x80 bin", "日本語"} {
		checkLine(t, kv.Pair[string, int64]{Key: s, Val: 3})
		checkLine(t, kv.Pair[int64, string]{Key: -3, Val: s})
	}
	for _, i := range []int{0, 1, -1, math.MaxInt, math.MinInt} {
		checkLine(t, kv.Pair[int, int]{Key: i, Val: -i})
	}
	for _, i := range []int64{0, 42, -42, math.MaxInt64, math.MinInt64} {
		checkLine(t, kv.Pair[int64, int64]{Key: i, Val: i / 7})
	}
	for _, u := range []uint64{0, 1, 1 << 63, math.MaxUint64} {
		checkLine(t, kv.Pair[string, uint64]{Key: "k", Val: u})
		checkLine(t, kv.Pair[uint64, uint64]{Key: u, Val: u >> 1})
	}
	// Fallback types the apps emit: invindex's document lists and
	// kmeans' cluster accumulators, plus types the fast path must not
	// claim (a named string, a Stringer, a narrower integer).
	checkLine(t, kv.Pair[string, []string]{Key: "term", Val: []string{"doc1", "doc 2"}})
	checkLine(t, kv.Pair[string, []string]{Key: "none", Val: nil})
	checkLine(t, kv.Pair[int, apps.ClusterAccum]{Key: 2, Val: apps.ClusterAccum{N: 5, Sum: []float64{1.5, math.Inf(-1)}}})
	checkLine(t, kv.Pair[int, apps.ClusterAccum]{Key: 0, Val: apps.ClusterAccum{}})
	type name string
	checkLine(t, kv.Pair[name, int32]{Key: "named", Val: -9})
	checkLine(t, kv.Pair[stringer, bool]{Key: 3, Val: true})
	checkLine(t, kv.Pair[[]byte, uint8]{Key: []byte("ab"), Val: 200})
}

type stringer int

func (s stringer) String() string { return fmt.Sprintf("<%d>", int(s)) }

func FuzzAppendText(f *testing.F) {
	f.Add("word", int64(-1), uint64(0), 0.5)
	f.Add("", int64(math.MinInt64), uint64(math.MaxUint64), math.Inf(-1))
	f.Add("\xff\t\n", int64(math.MaxInt64), uint64(1), 1e21)
	f.Add("z", int64(0), uint64(7), math.Copysign(0, -1))
	f.Add("n", int64(3), uint64(9), math.NaN())
	f.Add("s", int64(5), uint64(2), 5e-324)
	f.Fuzz(func(t *testing.T, s string, i int64, u uint64, x float64) {
		checkLine(t, kv.Pair[string, int64]{Key: s, Val: i})
		checkLine(t, kv.Pair[uint64, float64]{Key: u, Val: x})
		checkLine(t, kv.Pair[int, string]{Key: int(i), Val: s})
	})
}

// allocsPerLine is AppendText's allocations per call with a buffer that
// already has room.
func allocsPerLine[K, V any](p kv.Pair[K, V]) float64 {
	buf := make([]byte, 0, 256)
	return testing.AllocsPerRun(200, func() { buf = kv.AppendText(buf[:0], &p) })
}

func TestAppendTextFastTypesAllocationFree(t *testing.T) {
	for name, n := range map[string]float64{
		"string/int":      allocsPerLine(kv.Pair[string, int]{Key: "k", Val: -12345}),
		"int64/uint64":    allocsPerLine(kv.Pair[int64, uint64]{Key: math.MinInt64, Val: math.MaxUint64}),
		"float64/float64": allocsPerLine(kv.Pair[float64, float64]{Key: math.Pi, Val: math.NaN()}),
		"int/string":      allocsPerLine(kv.Pair[int, string]{Key: 4, Val: "terasort-key"}),
	} {
		if n != 0 {
			t.Errorf("%s: %v allocs per line, want 0", name, n)
		}
	}
}
