package jobspec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"supmr"
	"supmr/internal/workload"
)

// accepts lists, per app, the app-dependent knobs it honours. It is
// written out independently of the app table so that any capability
// change shows up as a diff here.
var accepts = map[string]string{
	"wordcount": "budget memo nodes innode_combiner_off files piped engine",
	"sort":      "budget memo nodes innode_combiner_off engine",
	"histogram": "memo nodes innode_combiner_off piped engine",
	"grep":      "budget memo nodes innode_combiner_off piped engine",
	"invindex":  "files engine",
	"linreg":    "memo nodes innode_combiner_off engine",
	"kmeans":    "",
	"psum1":     "budget memo nodes innode_combiner_off block engine",
	"psum2":     "budget memo nodes innode_combiner_off piped block blocks engine",
}

// TestCapabilityRules covers every app × knob pair: the spec is either
// accepted or rejected with the reason the app's missing capability
// gives.
func TestCapabilityRules(t *testing.T) {
	knobs := []struct {
		name     string
		set      func(*Spec)
		validate func(Spec) error
		need     caps
	}{
		{"budget", func(s *Spec) { s.Budget = 1 << 20 }, Spec.Validate, spillable},
		{"memo", func(s *Spec) { s.Memo = true }, Spec.Validate, memoizable},
		{"nodes", func(s *Spec) { s.Nodes = 2 }, Spec.Validate, wireCodec},
		{"innode_combiner_off", func(s *Spec) { s.Nodes, s.InNodeCombinerOff = 2, true }, Spec.Validate, wireCodec},
		{"files", func(s *Spec) { s.Files = 4 }, Spec.Validate, multiFile},
		{"piped", func(*Spec) {}, Spec.ValidatePiped, pipedText},
		{"block", func(s *Spec) { s.Block = 64 }, Spec.Validate, blockParam},
		{"blocks", func(s *Spec) { s.Blocks = 8 }, Spec.Validate, blocksParam},
		{"engine", func(*Spec) {}, Spec.ValidateEngine, oneRound},
	}
	var apps []string
	for app := range table {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	if len(apps) != len(accepts) {
		t.Fatalf("app table has %v, want exactly the %d apps of accepts", apps, len(accepts))
	}
	for _, app := range apps {
		ok := map[string]bool{}
		for _, k := range strings.Fields(accepts[app]) {
			ok[k] = true
		}
		if err := (Spec{App: app}).Validate(); err != nil {
			t.Errorf("%s: bare spec rejected: %v", app, err)
		}
		for _, k := range knobs {
			s := Spec{App: app}
			k.set(&s)
			err := k.validate(s)
			switch {
			case ok[k.name] && err != nil:
				t.Errorf("%s × %s: rejected, want accepted: %v", app, k.name, err)
			case !ok[k.name] && err == nil:
				t.Errorf("%s × %s: accepted, want rejected", app, k.name)
			case !ok[k.name] && !strings.Contains(err.Error(), lacks[k.need]):
				t.Errorf("%s × %s: rejection %q does not give the capability reason %q", app, k.name, err, lacks[k.need])
			}
		}
	}
}

// TestGenericRules pins the knob × knob rules that hold for every app.
func TestGenericRules(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{}, "missing app"},
		{Spec{App: "nope"}, "unknown app"},
		{Spec{App: "wordcount", Runtime: "phoenix"}, "unknown runtime"},
		{Spec{App: "wordcount", Merge: "bubble"}, "unknown merge"},
		{Spec{App: "wordcount", IOLanes: -1}, "negative io_lanes"},
		{Spec{App: "wordcount", Budget: 1, Runtime: "traditional"}, "budget requires the supmr runtime"},
		{Spec{App: "wordcount", Memo: true, Runtime: "traditional"}, "memo requires the supmr runtime"},
		{Spec{App: "wordcount", Memo: true, Files: 2}, "single-file input"},
		{Spec{App: "wordcount", MemoKey: "k"}, "memo_key set without memo"},
		{Spec{App: "wordcount", Nodes: 2, Memo: true}, "nodes is incompatible with memo"},
		{Spec{App: "wordcount", InNodeCombinerOff: true}, "innode_combiner_off requires nodes"},
		{Spec{App: "wordcount", Faults: "read-err=1.5"}, "probability"},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want an error containing %q", c.spec, err, c.want)
		}
	}
	if err := (Spec{App: "grep", Memo: true}).ValidatePiped(); err == nil || !strings.Contains(err.Error(), "memo is incompatible with a piped input") {
		t.Errorf("piped memo: got %v", err)
	}
}

// TestResultDigestMatchesFacade runs one small job per app through
// jobspec and the same job by hand through the supmr facade: the
// Result's digest must equal Digest over the facade's pairs.
func TestResultDigestMatchesFacade(t *testing.T) {
	const size, chunk, seed = 64 << 10, 16 << 10, 3
	cfg := supmr.Config{Runtime: supmr.RuntimeSupMR, ChunkBytes: chunk}
	dev := supmr.NewFastDevice(supmr.NewClock())
	text := func() supmr.Input {
		f, err := supmr.TextFile("in", size, seed, dev)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	must := func(d string, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	facade := map[string]func() string{
		"wordcount": func() string {
			return must(digestOf(supmr.RunFile(supmr.WordCountJob(), text(), supmr.WordCountContainer(64), cfg)))
		},
		"sort": func() string {
			f, err := supmr.TeraFile("in", size/100, seed, dev)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Boundary = supmr.CRLFRecords
			return must(digestOf(supmr.RunFile(supmr.SortJob(), f, supmr.SortContainer(), c)))
		},
		"histogram": func() string {
			j := supmr.HistogramJob()
			return must(digestOf(supmr.RunFile(j, text(), j.NewContainer(8), cfg)))
		},
		"grep": func() string {
			j := supmr.GrepJob("beka", "ru")
			return must(digestOf(supmr.RunFile(j, text(), j.NewContainer(), cfg)))
		},
		"invindex": func() string {
			fs, err := supmr.TextFiles("doc", 16, 4<<10, seed, dev)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.FilesPerChunk = 1
			j := supmr.InvertedIndexJob()
			return must(digestOf(supmr.RunFiles(j, fs, j.NewContainer(32), c)))
		},
		"linreg": func() string {
			c := cfg
			c.Boundary = supmr.FixedRecords(2)
			j := supmr.LinearRegressionJob()
			return must(digestOf(supmr.RunFile(j, text(), j.NewContainer(), c)))
		},
		"kmeans": func() string {
			km := supmr.KMeansJob(4, 2)
			km.Epsilon = 0.05
			res, err := supmr.RunKMeans(km, text(), cfg, 25)
			if err != nil {
				t.Fatal(err)
			}
			pairs := make([]supmr.Pair[int, string], len(res.Sizes))
			for i, n := range res.Sizes {
				pairs[i] = supmr.Pair[int, string]{Key: i, Val: fmt.Sprintf("%d %v", n, km.Centroids[i])}
			}
			return Digest(pairs)
		},
		"psum1": func() string {
			f, err := supmr.SeqFile("in", size/workload.SeqRecordWidth, seed, dev)
			if err != nil {
				t.Fatal(err)
			}
			j := supmr.PrefixPartJob(256)
			return must(digestOf(supmr.RunFile(j, f, j.NewContainer(64), cfg)))
		},
		"psum2": func() string {
			sums := workload.SeqGen{Seed: seed}.BlockSums(size/workload.SeqRecordWidth, 256)
			var in strings.Builder
			for b, s := range sums {
				fmt.Fprintf(&in, "%d\t%d\n", b, s)
			}
			j := supmr.PrefixTotalJob(int64(len(sums)))
			return must(digestOf(supmr.RunBytes(j, []byte(in.String()), j.NewContainer(64), cfg)))
		},
	}
	for app := range accepts {
		t.Run(app, func(t *testing.T) {
			res, err := Run(context.Background(), Spec{App: app, Size: size, ChunkBytes: chunk, Seed: seed, FileSize: 4 << 10, Pattern: "beka,ru"}, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.OutputPairs == 0 || res.Spec.App != app {
				t.Fatalf("result = %+v, want a non-empty %s output", res, app)
			}
			if want := facade[app](); res.Digest != want {
				t.Fatalf("jobspec digest %s != facade digest %s", res.Digest, want)
			}
		})
	}
}

func digestOf[K comparable, V any](rep *supmr.Report[K, V], err error) (string, error) {
	if err != nil {
		return "", err
	}
	return Digest(rep.Pairs), nil
}

// TestLiteralKeepsZeros pins the CLI's flag meanings: under Env.Literal
// a zero seed seeds 0 and a zero chunk size ingests the whole input as
// one chunk, instead of selecting the spec defaults (seed 1, 256 KiB).
func TestLiteralKeepsZeros(t *testing.T) {
	const size = 64 << 10
	res, _, err := Exec(context.Background(), Spec{App: "wordcount", Size: size}, Env{Literal: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Seed != 0 || res.Spec.ChunkBytes != 0 || res.Stats.MapWaves != 1 {
		t.Fatalf("literal run: seed %d chunk %d map waves %d, want 0/0/1", res.Spec.Seed, res.Spec.ChunkBytes, res.Stats.MapWaves)
	}
	f, err := supmr.TextFile("in", size, 0, supmr.NewFastDevice(supmr.NewClock()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := digestOf(supmr.RunFile(supmr.WordCountJob(), f, supmr.WordCountContainer(64), supmr.Config{Runtime: supmr.RuntimeSupMR}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != want {
		t.Fatalf("literal digest %s != seed-0 facade digest %s", res.Digest, want)
	}
	def, err := Run(context.Background(), Spec{App: "wordcount", Size: size}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if def.Spec.Seed != 1 || def.Spec.ChunkBytes != 256<<10 || def.Digest == res.Digest {
		t.Fatalf("default run: seed %d chunk %d, want the spec defaults 1/256KiB and a different digest", def.Spec.Seed, def.Spec.ChunkBytes)
	}
}

// TestMemoKeySpaceTracksBlockSizing is the stale-replay regression: on
// one engine with a shared memo store (supmrd's default), a psum job
// whose block sizing differs from an earlier one must not replay the
// earlier job's cached map output — its key space has to cover every
// parameter that shapes map output, not just the app name.
func TestMemoKeySpaceTracksBlockSizing(t *testing.T) {
	store, err := supmr.NewMemoStore(supmr.MemoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := supmr.NewEngine(supmr.EngineConfig{Workers: 2, Memo: store})
	defer eng.Close()
	ctx := context.Background()
	for _, s := range []Spec{
		{App: "psum1", Block: 256},
		{App: "psum1", Block: 128},
		{App: "psum2", Blocks: 64},
		{App: "psum2", Blocks: 32},
	} {
		s.Size, s.ChunkBytes = 256<<10, 32<<10
		want, err := Run(ctx, s, nil)
		if err != nil {
			t.Fatalf("%+v solo: %v", s, err)
		}
		s.Memo = true
		got, err := Run(ctx, s, eng)
		if err != nil {
			t.Fatalf("%+v memoized: %v", s, err)
		}
		if got.Digest != want.Digest || got.OutputPairs != want.OutputPairs {
			t.Errorf("%s block=%d blocks=%d: memoized run on the shared store = %d pairs %s, want %d pairs %s (stale replay)",
				s.App, s.Block, s.Blocks, got.OutputPairs, got.Digest, want.OutputPairs, want.Digest)
		}
	}
}

// TestDigestMatchesFmtRendering pins Digest to the "%v\t%v\n" text it
// has always hashed, over an output long enough to cross the hash
// buffer's flush point several times.
func TestDigestMatchesFmtRendering(t *testing.T) {
	pairs := make([]supmr.Pair[string, []string], 5000)
	h := sha256.New()
	for i := range pairs {
		pairs[i] = supmr.Pair[string, []string]{Key: fmt.Sprintf("term%05d", i), Val: []string{"doc", fmt.Sprint(i % 7)}}
		fmt.Fprintf(h, "%v\t%v\n", pairs[i].Key, pairs[i].Val)
	}
	if got, want := Digest(pairs), hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Digest = %s, fmt rendering hashes to %s", got, want)
	}
	if got, want := Digest[int, int64](nil), DigestBytes(nil); got != want {
		t.Fatalf("empty Digest = %s, want %s", got, want)
	}
}

// TestEgressedBytesHashToDigest holds DigestBytes over every egressing
// app's materialized output (grep's is empty) equal to Digest over its
// pairs, at 1, 2 and 4 render workers and 1 and 4 egress lanes.
func TestEgressedBytesHashToDigest(t *testing.T) {
	for _, app := range []string{"wordcount", "sort", "histogram", "grep", "invindex", "linreg", "psum1", "psum2"} {
		for _, workers := range []int{1, 2, 4} {
			for _, lanes := range []int{1, 4} {
				s := Spec{App: app, Size: 32 << 10, ChunkBytes: 4 << 10, Workers: workers, EgressLanes: lanes, EgressExtent: 4 << 10}
				if app == "invindex" {
					s.Files, s.FileSize = 4, 8<<10
				}
				res, out, err := Exec(context.Background(), s, Env{})
				if err != nil {
					t.Fatalf("%s workers=%d lanes=%d: %v", app, workers, lanes, err)
				}
				b, err := out.Bytes()
				if err != nil {
					t.Fatal(err)
				}
				out.Close()
				if got := DigestBytes(b); got != res.Digest {
					t.Fatalf("%s workers=%d lanes=%d: egressed bytes hash to %s, Digest = %s", app, workers, lanes, got, res.Digest)
				}
			}
		}
	}
}
