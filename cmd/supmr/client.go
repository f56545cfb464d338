// supmrd client subcommands: `supmr submit|status|wait|cancel|list|stats`
// talk to a running supmrd over its unix socket, so one shared engine
// serves many short-lived CLI invocations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"supmr/internal/cliutil"
	"supmr/internal/server"
)

// clientCommands names the subcommands dispatched to a supmrd server.
var clientCommands = map[string]bool{
	"submit": true, "status": true, "wait": true,
	"cancel": true, "list": true, "stats": true,
}

// clientMain runs one client subcommand against supmrd and exits the
// process with its status.
func clientMain(cmd string, args []string) {
	switch cmd {
	case "submit":
		submitMain(args)
	case "status", "wait", "cancel":
		jobMain(cmd, args)
	case "list":
		listMain(args)
	case "stats":
		statsMain(args)
	}
	os.Exit(0)
}

func dial(socket string) *server.Client {
	c, err := server.Dial(socket)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(1)
	}
	return c
}

// fatal prints the error and exits with its typed status: protocol
// rejections carry distinct codes (3 = multi-node unsupported, 4 = DAG
// unsupported) so scripts can tell "run it locally instead" apart from
// a plain failure.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "supmr:", err)
	os.Exit(cliutil.ExitCode(err))
}

// submitMain submits one job, optionally waiting for its result.
func submitMain(args []string) {
	fs := flag.NewFlagSet("supmr submit", flag.ExitOnError)
	jobSpec := jobFlags(fs, "4m", "256k", "0", "")
	var (
		socket  = fs.String("socket", "/tmp/supmrd.sock", "supmrd unix socket")
		tenant  = fs.String("tenant", "", "tenant name for the engine's per-tenant rollup")
		weight  = fs.String("weight", "1", "fair-share weight on the engine scheduler")
		memoKey = fs.String("memo-key", "", "memo cache key space (default: derived from the app and its parameters)")
		block   = fs.String("block", "0", "records per block for -app psum1/psum2 (0 = default)")
		blocks  = fs.String("blocks", "0", "block count for -app psum2 (0 = derived from the input)")
		wait    = fs.Bool("wait", false, "block until the job finishes and print its result")
	)
	fs.Parse(args)
	spec := jobSpec()
	spec.Tenant, spec.Weight, spec.MemoKey = *tenant, must(cliutil.ParseCount(*weight, 1)), *memoKey
	spec.Block, spec.Blocks = int64(must(cliutil.ParseCount(*block, 0))), int64(must(cliutil.ParseCount(*blocks, 0)))
	if err := spec.ValidateEngine(); err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(2)
	}
	c := dial(*socket)
	defer c.Close()
	id, err := c.Submit(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("job %d submitted\n", id)
	if !*wait {
		return
	}
	v, err := c.Wait(id)
	if err != nil {
		fatal(err)
	}
	printJob(*v)
	if v.State != server.StateDone {
		os.Exit(1)
	}
}

// jobMain handles the id-addressed ops: status, wait, cancel.
func jobMain(op string, args []string) {
	fs := flag.NewFlagSet("supmr "+op, flag.ExitOnError)
	socket := fs.String("socket", "/tmp/supmrd.sock", "supmrd unix socket")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "supmr: usage: supmr %s [-socket PATH] JOB-ID\n", op)
		os.Exit(2)
	}
	id, err := strconv.ParseInt(fs.Arg(0), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supmr: bad job id %q\n", fs.Arg(0))
		os.Exit(2)
	}
	c := dial(*socket)
	defer c.Close()
	var v *server.JobView
	switch op {
	case "status":
		v, err = c.Status(id)
	case "wait":
		v, err = c.Wait(id)
	case "cancel":
		v, err = c.Cancel(id)
	}
	if err != nil {
		fatal(err)
	}
	printJob(*v)
}

func listMain(args []string) {
	fs := flag.NewFlagSet("supmr list", flag.ExitOnError)
	socket := fs.String("socket", "/tmp/supmrd.sock", "supmrd unix socket")
	fs.Parse(args)
	c := dial(*socket)
	defer c.Close()
	jobs, err := c.List()
	if err != nil {
		fatal(err)
	}
	for _, v := range jobs {
		printJob(v)
	}
}

func statsMain(args []string) {
	fs := flag.NewFlagSet("supmr stats", flag.ExitOnError)
	socket := fs.String("socket", "/tmp/supmrd.sock", "supmrd unix socket")
	fs.Parse(args)
	c := dial(*socket)
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("jobs: %d active, %d pending, %d submitted, %d completed, %d failed, %d rejected\n",
		st.ActiveJobs, st.PendingJobs, st.Submitted, st.Completed, st.Failed, st.Rejected)
	if st.BudgetTotal > 0 {
		fmt.Printf("budget: %s of %s free\n",
			cliutil.FormatBytes(st.BudgetRemaining), cliutil.FormatBytes(st.BudgetTotal))
	}
	fmt.Printf("chunks: %d gets, %d recycled\n", st.ChunkGets, st.ChunkReuses)
	if st.Memo != nil {
		m := st.Memo
		fmt.Printf("memo: %d hits, %d misses, %d entries (%s resident), %d stored, %d evicted, %d torn\n",
			m.Hits, m.Misses, m.Entries, cliutil.FormatBytes(m.Bytes), m.Stored, m.Evicted, m.Torn)
	}
	for name, t := range st.Tenants {
		fmt.Printf("tenant %-12s %d jobs (%d failed), %d pairs, %s ingested, %s spilled, %v busy\n",
			name, t.Jobs, t.Failed, t.OutputPairs,
			cliutil.FormatBytes(t.BytesIngested), cliutil.FormatBytes(t.SpilledBytes), t.Busy)
	}
}

// printJob renders one job line; finished jobs carry their result
// report — the digest line first — so server-mode output can be diffed
// against a direct `supmr -digest` run.
func printJob(v server.JobView) {
	fmt.Printf("job %d  app=%s", v.ID, v.App)
	if v.Tenant != "" {
		fmt.Printf(" tenant=%s", v.Tenant)
	}
	fmt.Printf("  state=%s", v.State)
	if v.Error != "" {
		fmt.Printf("  error=%q", v.Error)
	}
	if v.Result != nil {
		for _, l := range v.Result.Lines() {
			fmt.Printf("\n  %s", l)
		}
	}
	fmt.Println()
}
