package dag

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"supmr/internal/jobspec"
)

// Chaos coverage for chained rounds: every round of the pipeline runs
// under the same deterministic fault plan — ingest, spill and egress
// sites included — and a run either recovers to the fault-free digests
// or fails with the injected fault; either way the outcome and the
// fault counters are a pure function of the seed.

func TestChaosChainedDAG(t *testing.T) {
	base := runtime.NumGoroutine()
	const size = 64 << 10

	clean, err := Run(context.Background(), prefixGraph(size, jobspec.Spec{EgressLanes: 4}), Options{})
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	recovered, failed := 0, 0
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := jobspec.Spec{
				EgressLanes: 4,
				ChunkBytes:  4 << 10, // many chunks → many fault sites per round
				Faults:      fmt.Sprintf("seed=%d,read-err=0.2,write-err=0.4,short-read=0.2,max=60", seed),
				Retries:     "attempts=6,base=50us,max=1ms",
			}
			g := prefixGraph(size, spec)
			// Round 2 under the same plan (its own injector, same seed).
			g.Nodes[1].Spec.Faults = spec.Faults
			g.Nodes[1].Spec.Retries = spec.Retries

			run := func() ([]Round, error) {
				res, err := Run(context.Background(), g, Options{})
				if err != nil {
					return nil, err
				}
				return res.Rounds, nil
			}
			r1, err1 := run()
			r2, err2 := run()
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("nondeterministic outcome: %v vs %v", err1, err2)
			}
			if err1 != nil {
				failed++
				return
			}
			for i := range r1 {
				if r1[i].Res.Digest != r2[i].Res.Digest {
					t.Fatalf("round %s: digests differ across identical chaos runs", r1[i].ID)
				}
				// Identical fault counters, not merely identical output.
				if r1[i].Res.Stats.Faults != r2[i].Res.Stats.Faults {
					t.Fatalf("round %s: fault counters differ across identical runs:\n  %s\n  %s",
						r1[i].ID, r1[i].Res.Stats.Faults, r2[i].Res.Stats.Faults)
				}
				if r1[i].Res.Digest != clean.Rounds[i].Res.Digest {
					t.Fatalf("round %s: chaos run recovered to wrong digest", r1[i].ID)
				}
			}
			if !r1[0].Res.Stats.Faults.Any() && !r1[1].Res.Stats.Faults.Any() {
				t.Fatalf("no round saw any faults; the chaos sweep is vacuous")
			}
			recovered++
		})
	}
	if recovered == 0 {
		t.Error("no chaos seed recovered to the fault-free digests; retries are not absorbing faults")
	}
	_ = failed // failing seeds are acceptable as long as they fail deterministically

	// All pools, engines and egress outputs must be torn down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+4 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
