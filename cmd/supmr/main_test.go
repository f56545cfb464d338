package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain re-execs the test binary as the supmr command when asked:
// the tests below need real exit codes, stdout and stderr, which
// calling main() in-process cannot observe.
func TestMain(m *testing.M) {
	if os.Getenv("SUPMR_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPermanentFaultFailsCleanly pins the CLI's error path: a fault
// plan with a permanent ingest fault must make the command exit
// non-zero with a single wrapped error line on stderr — no panic, no
// hang, no partial-success exit 0.
func TestPermanentFaultFailsCleanly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-app", "wordcount", "-runtime", "supmr", "-size", "256k", "-chunk", "32k", "-bw", "0",
		"-faults", "seed=3,read-err-every=2,permanent")
	cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr

	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("command hung past the watchdog; stderr so far:\n%s", stderr.String())
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want a non-zero exit, got err=%v, stderr:\n%s", err, stderr.String())
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if strings.Contains(out, "panic") || strings.Contains(stdout.String(), "panic") {
		t.Fatalf("command panicked:\n%s%s", stdout.String(), out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly one stderr line, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "supmr: ") {
		t.Fatalf("stderr line not prefixed with the command name: %q", lines[0])
	}
	if !strings.Contains(lines[0], "injected fault") {
		t.Fatalf("stderr does not surface the injected fault: %q", lines[0])
	}
}

// TestFaultedRunRecoversWithRetries is the success twin: the same
// command with a sparser transient plan and retries must exit zero and
// report the fault counters on stdout.
func TestFaultedRunRecoversWithRetries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-app", "wordcount", "-runtime", "supmr", "-size", "256k", "-chunk", "32k", "-bw", "0",
		"-faults", "seed=1,read-err-every=5", "-retries", "4")
	cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr

	if err := cmd.Run(); err != nil {
		t.Fatalf("recovering run failed: %v\nstderr:\n%s", err, stderr.String())
	}
	if ctx.Err() != nil {
		t.Fatal("command hung past the watchdog")
	}
	out := stdout.String()
	if !strings.Contains(out, "faults: injected=") {
		t.Fatalf("stdout does not report fault counters:\n%s", out)
	}
	if !strings.Contains(out, "recovered=") {
		t.Fatalf("fault counter line lacks recovery stats:\n%s", out)
	}
}

// TestBadFaultPlanRejected covers flag validation: a malformed plan
// must fail fast with a parse error, before any job runs.
func TestBadFaultPlanRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-app", "wordcount", "-size", "64k", "-bw", "0", "-faults", "read-err=1.5")
	cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 for a bad plan, got %v; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "probability") {
		t.Fatalf("stderr does not explain the bad probability: %s", stderr.String())
	}
}

// TestBadKnobsExitUsage covers flag validation for the ingest and
// budget knobs: non-positive lane counts, prefetch depths and negative
// budgets are usage errors — exit 2 with a descriptive line — caught
// before any job runs.
func TestBadKnobsExitUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"io-lanes-zero", []string{"-io-lanes", "0"}, "below minimum"},
		{"io-lanes-negative", []string{"-io-lanes", "-3"}, "below minimum"},
		{"prefetch-zero", []string{"-prefetch-depth", "0"}, "below minimum"},
		{"prefetch-garbage", []string{"-prefetch-depth", "lots"}, "bad count"},
		{"budget-negative", []string{"-budget", "-5m"}, "negative size"},
		{"size-garbage", []string{"-size", "12q"}, "bad size"},
		{"memo-budget-negative", []string{"-memo-budget", "-2m"}, "negative size"},
		{"memo-budget-garbage", []string{"-memo-budget", "lots"}, "bad size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			args := append([]string{"-app", "wordcount", "-size", "64k", "-bw", "0"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("want exit 2, got %v; stderr:\n%s", err, stderr.String())
			}
			out := stderr.String()
			if !strings.HasPrefix(out, "supmr: ") || !strings.Contains(out, tc.want) {
				t.Fatalf("stderr %q does not explain the usage error (want %q)", out, tc.want)
			}
		})
	}
}

// TestBadSubmitKnobsExitUsage covers the submission path: `supmr
// submit` validates its knobs — the fair-share weight included — and
// exits 2 with a descriptive error before dialing the server socket,
// so no supmrd is needed for these cases.
func TestBadSubmitKnobsExitUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"weight-zero", []string{"-weight", "0"}, "below minimum"},
		{"weight-negative", []string{"-weight", "-3"}, "below minimum"},
		{"weight-garbage", []string{"-weight", "heavy"}, "bad count"},
		{"io-lanes-zero", []string{"-io-lanes", "0"}, "below minimum"},
		{"budget-negative", []string{"-budget", "-1m"}, "negative size"},
		{"memo-key-without-memo", []string{"-memo-key", "k"}, "memo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			args := append([]string{"submit", "-socket", "/nonexistent/supmrd.sock", "-app", "wordcount"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("want exit 2, got %v; stderr:\n%s", err, stderr.String())
			}
			out := stderr.String()
			if !strings.HasPrefix(out, "supmr: ") || !strings.Contains(out, tc.want) {
				t.Fatalf("stderr %q does not explain the usage error (want %q)", out, tc.want)
			}
		})
	}
}

// runCLI runs the command with args and returns its stdout, stderr and
// exit code.
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("%v hung past the watchdog", args)
	}
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return stdout.String(), stderr.String(), code
}

// TestDigestModeMatchesDirect pins the one construction path: for every
// app, a direct run and a -digest run with the same flags — including
// flags -digest used to ignore — print the same digest.
func TestDigestModeMatchesDirect(t *testing.T) {
	digestLine := regexp.MustCompile(`pairs=\d+ digest=[0-9a-f]{64}`)
	base := []string{"-size", "64k", "-chunk", "16k", "-bw", "0", "-seed", "3", "-workers", "2",
		"-merge", "pairwise", "-filesize", "8k", "-files-per-chunk", "2", "-pattern", "beka,ru"}
	extra := map[string][]string{
		"wordcount": {"-files", "3", "-flatcombiner=off"},
		"grep":      {"-flatcombiner=off", "-memo", "-memo-budget", "1m"},
		"invindex":  {"-files", "5"},
		"sort":      {"-egress-lanes", "2", "-egress-extent", "8k"},
	}
	for _, app := range []string{"wordcount", "sort", "histogram", "grep", "invindex", "linreg", "kmeans", "psum1", "psum2"} {
		t.Run(app, func(t *testing.T) {
			args := append(append([]string{"-app", app}, base...), extra[app]...)
			direct, stderr, code := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("direct run exit %d:\n%s", code, stderr)
			}
			digest, stderr, code := runCLI(t, append([]string{"-digest"}, args...)...)
			if code != 0 {
				t.Fatalf("-digest run exit %d:\n%s", code, stderr)
			}
			want := digestLine.FindString(direct)
			if want == "" || !strings.HasPrefix(digest, "app="+app+" "+want) {
				t.Fatalf("-digest printed %q, want %q as in the direct report:\n%s", digest, want, direct)
			}
		})
	}
}

// TestInNodeCombinerOffNeedsNodes: the combiner ablation without a
// cluster is rejected the same way in direct and -digest mode.
func TestInNodeCombinerOffNeedsNodes(t *testing.T) {
	for _, mode := range [][]string{nil, {"-digest"}} {
		args := append(mode, "-app", "wordcount", "-size", "64k", "-bw", "0", "-innode-combiner=off")
		stdout, stderr, code := runCLI(t, args...)
		if code != 1 || !strings.Contains(stderr, "innode_combiner_off requires nodes") {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 1 naming the missing nodes", args, code, stderr, stdout)
		}
	}
}
