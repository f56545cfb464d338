package jobspec

import (
	"fmt"
	"strings"
	"time"

	"supmr/internal/cliutil"
)

// Lines renders the result as the report every supmr front end prints
// (direct runs, submit -wait, status, list, pipeline): the digest line,
// the phase row, the app's summary, then one line per instrument the
// run used.
func (r *Result) Lines() []string {
	st, s := &r.Stats, &r.Spec
	out := []string{fmt.Sprintf("pairs=%d digest=%s", r.OutputPairs, r.Digest)}
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if r.Times != "" {
		add("%s", r.Times)
	}
	if r.Allocs != "" {
		add("allocs: %s", r.Allocs)
	}
	out = append(out, r.Summary...)
	if st.SpilledRuns > 0 {
		add("spill: %d runs, %d bytes written, merged in %d round(s) (budget %d)",
			st.SpilledRuns, st.SpilledBytes, st.MergeRounds, s.Budget)
	}
	if st.MemoHits > 0 || st.MemoMisses > 0 {
		budget := "" // an engine's shared store keeps its own budget
		if s.MemoBudget > 0 {
			budget = " (budget " + cliutil.FormatBytes(s.MemoBudget) + ")"
		}
		add("memo: %d hits, %d misses, %s saved%s", st.MemoHits, st.MemoMisses, cliutil.FormatBytes(st.MemoBytesSaved), budget)
	}
	for _, n := range r.Notes {
		add("note: %s", n)
	}
	if st.Faults.Any() {
		add("faults: %s", st.Faults)
	}
	if st.RadixRuns > 0 {
		add("sortpath: %d run(s) radix-sorted", st.RadixRuns)
	}
	if s.Nodes > 0 {
		add("shuffle: %d node(s), %s in %d frame(s) on the wire, %s saved by the in-node combiner",
			s.Nodes, cliutil.FormatBytes(st.ShuffleBytes), st.ShuffleFrames, cliutil.FormatBytes(st.ShuffleBytesSaved))
	}
	if s.IOLanes > 1 || s.PrefetchDepth > 1 {
		add("ingest: %d prefetch hits, %s stalled%s", st.PrefetchHits, st.IngestStall.Round(time.Microsecond), laneBytes(st.IngestLaneBytes))
	}
	if s.EgressLanes > 0 {
		add("egress: %s in %d extent(s), %s stalled%s", cliutil.FormatBytes(st.EgressBytes),
			st.EgressExtents, st.EgressStall.Round(time.Microsecond), laneBytes(st.EgressLaneBytes))
	}
	return out
}

// laneBytes renders per-lane byte counters as ", lane bytes 0:1.0MB
// 1:1.0MB" (empty for a single lane).
func laneBytes(lanes []int64) string {
	if len(lanes) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(", lane bytes")
	for i, n := range lanes {
		fmt.Fprintf(&b, " %d:%s", i, cliutil.FormatBytes(n))
	}
	return b.String()
}
