package dag

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"supmr/internal/jobspec"
	"supmr/internal/workload"
)

func TestValidateRejects(t *testing.T) {
	wc := jobspec.Spec{App: "wordcount"}
	cases := []struct {
		name string
		g    Graph
		want string
	}{
		{"empty", Graph{}, "empty graph"},
		{"no id", Graph{Nodes: []Node{{Spec: wc}}}, "has no id"},
		{"dup id", Graph{Nodes: []Node{{ID: "a", Spec: wc}, {ID: "a", Spec: wc}}}, "duplicate node id"},
		{"bad spec", Graph{Nodes: []Node{{ID: "a", Spec: jobspec.Spec{App: "nope"}}}}, "unknown app"},
		{"self edge", Graph{Nodes: []Node{{ID: "a", Spec: wc, Input: "a"}}}, "pipes from itself"},
		{"unknown edge", Graph{Nodes: []Node{{ID: "a", Spec: wc, Input: "b"}}}, "unknown node"},
		{"cycle", Graph{Nodes: []Node{
			{ID: "a", Spec: wc, Input: "b"},
			{ID: "b", Spec: wc, Input: "a"},
		}}, "cycle"},
		{"unpipeable consumer", Graph{Nodes: []Node{
			{ID: "a", Spec: wc},
			{ID: "b", Spec: jobspec.Spec{App: "sort"}, Input: "a"},
		}}, "cannot consume a piped input"},
		{"piped memo", Graph{Nodes: []Node{
			{ID: "a", Spec: wc},
			{ID: "b", Spec: jobspec.Spec{App: "grep", Memo: true}, Input: "a"},
		}}, "memo is incompatible"},
		{"multi-node round", Graph{Nodes: []Node{
			{ID: "a", Spec: jobspec.Spec{App: "wordcount", Nodes: 2}},
		}}, "cannot be chained"},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestOrderTopological(t *testing.T) {
	g := Graph{Nodes: []Node{
		{ID: "c", Spec: jobspec.Spec{App: "grep"}, Input: "b"},
		{ID: "b", Spec: jobspec.Spec{App: "wordcount"}, Input: "a"},
		{ID: "a", Spec: jobspec.Spec{App: "wordcount"}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	order, err := g.order()
	if err != nil {
		t.Fatalf("order: %v", err)
	}
	pos := map[string]int{}
	for at, i := range order {
		pos[g.Nodes[i].ID] = at
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Fatalf("order not topological: %v", pos)
	}
}

// prefixGraph is the canonical 2-round prefix-sum pipeline.
func prefixGraph(size int64, spec1 jobspec.Spec) Graph {
	spec1.App = "psum1"
	spec1.Size = size
	return Graph{Nodes: []Node{
		{ID: "part", Spec: spec1},
		{ID: "total", Spec: jobspec.Spec{App: "psum2", Runtime: spec1.Runtime}, Input: "part"},
	}}
}

func TestPrefixSumPipeline(t *testing.T) {
	const size = 64 << 10 // 4096 records
	res, err := Run(context.Background(), prefixGraph(size, jobspec.Spec{}), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(res.Rounds))
	}

	// Expected prefix sums from the generator's reference block sums.
	sums := workload.SeqGen{Seed: 1}.BlockSums(size/workload.SeqRecordWidth, 256)
	var run int64
	var want strings.Builder
	for b, s := range sums {
		run += s
		fmt.Fprintf(&want, "%d\t%d\n", b, run)
	}
	wantDigest := digestText(want.String())

	final := res.Final()
	if final.ID != "total" {
		t.Fatalf("final round = %q, want total", final.ID)
	}
	if final.Res.Digest != wantDigest {
		t.Fatalf("piped prefix-sum digest mismatch:\n got %s\nwant %s", final.Res.Digest, wantDigest)
	}
	if final.Res.OutputPairs != len(sums) {
		t.Fatalf("output pairs = %d, want %d", final.Res.OutputPairs, len(sums))
	}
	if res.Rounds[0].Res.Stats.EgressBytes == 0 || res.Rounds[0].Res.Stats.EgressExtents == 0 {
		t.Fatalf("source round reported no egress: %+v", res.Rounds[0].Res)
	}
}

// digestText hashes pre-rendered "key\tvalue\n" text; jobspec.Digest
// renders pairs into exactly this text, so the hashes are comparable.
func digestText(s string) string {
	return jobspec.DigestBytes([]byte(s))
}

func TestPipedMatchesMaterialized(t *testing.T) {
	const size = 64 << 10
	axes := []struct {
		name string
		spec jobspec.Spec
	}{
		{"plain", jobspec.Spec{}},
		{"faulted", jobspec.Spec{Faults: "seed=7,read-err-every=9,write-err-every=11", Retries: "4"}},
		{"budgeted", jobspec.Spec{Budget: 8 << 10}},
		{"radix-off", jobspec.Spec{RadixOff: true}},
		{"multi-lane", jobspec.Spec{IOLanes: 4, PrefetchDepth: 4, EgressLanes: 4}},
	}
	for _, ax := range axes {
		t.Run(ax.name, func(t *testing.T) {
			g := prefixGraph(size, ax.spec)
			piped, err := Run(context.Background(), g, Options{})
			if err != nil {
				t.Fatalf("piped run: %v", err)
			}
			mat, err := Run(context.Background(), g, Options{Materialize: true})
			if err != nil {
				t.Fatalf("materialized run: %v", err)
			}
			for i := range piped.Rounds {
				p, m := piped.Rounds[i], mat.Rounds[i]
				if p.Res.Digest != m.Res.Digest {
					t.Errorf("round %s: piped digest %s != materialized %s", p.ID, p.Res.Digest, m.Res.Digest)
				}
				if p.Res.OutputPairs != m.Res.OutputPairs {
					t.Errorf("round %s: pairs %d != %d", p.ID, p.Res.OutputPairs, m.Res.OutputPairs)
				}
			}
		})
	}
}

func TestSortGrepPipeline(t *testing.T) {
	g := Graph{Nodes: []Node{
		{ID: "sorted", Spec: jobspec.Spec{App: "sort", Size: 100 << 10}},
		{ID: "hits", Spec: jobspec.Spec{App: "grep", Pattern: "00"}, Input: "sorted"},
	}}
	piped, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatalf("piped run: %v", err)
	}
	mat, err := Run(context.Background(), g, Options{Materialize: true})
	if err != nil {
		t.Fatalf("materialized run: %v", err)
	}
	if piped.Final().Res.Digest != mat.Final().Res.Digest {
		t.Fatalf("sort→grep digests differ: %s vs %s", piped.Final().Res.Digest, mat.Final().Res.Digest)
	}
	if piped.Final().Res.OutputPairs == 0 {
		t.Fatalf("grep over sorted output found nothing")
	}
}
