// Command benchmark measures DE-Sword end to end. It deploys the real
// system in one process over loopback TCP — a proxy server and one
// participant server per member of a four-participant line chain, on the
// daemons' default configuration — drives one of three path-query workloads
// through node.ProxyClient, checks every answer against the distribution's
// ground truth, and prints every metric by name with its unit. BENCHMARK.json
// at the repository root lists the workloads, the metrics and their
// regression bounds; README.md explains them.
//
// Usage, from this directory:
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run . -compare A.json[,A2.json...] B.json[,B2.json...]
//
// Without -workload every workload runs, each in its own child process. The
// last line a workload prints is its result as one JSON object: the
// end-to-end metrics of a timed run, or with -trace 1 the per-layer metrics
// of a traced one. -out appends each workload's full record to a JSON report,
// and -compare reads two sets of reports and exits non-zero on a regression.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// defaultSeconds is the measured window per workload; BENCHMARK.json's
// run_seconds matches it.
const defaultSeconds = 20

// ledgerBenchtime is how long each round of the traced run's ledger times a
// leaf.
const ledgerBenchtime = "100ms"

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in a child process")
	seed := fs.Int64("seed", 1, "seed of the query order")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window, in seconds")
	traced := fs.Int("trace", 0, "1 times the benchmark's layer seams and the leaf-layer ledger and prints the per-layer metrics")
	out := fs.String("out", "", "append each workload's record to the JSON report in this file")
	compare := fs.Bool("compare", false, "compare two sets of reports: -compare A.json[,A2.json...] B.json[,B2.json...]")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two comma-separated lists of report files")
		}
		return runCompare(stdout, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","))
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("-trace is 0 or 1, not %d", *traced)
	case *seconds <= 0:
		return fmt.Errorf("-seconds must be positive, not %v", *seconds)
	}
	if *name == "" {
		return runChildren(ctx, args, stdout)
	}
	w, ok := lookup(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	r, err := runWorkload(ctx, w, options{seed: *seed, seconds: *seconds, trace: *traced == 1, benchtime: ledgerBenchtime})
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if err := printRecord(stdout, r); err != nil {
		return err
	}
	if *out != "" {
		if err := appendReport(*out, r); err != nil {
			return err
		}
	}
	if !r.Correct {
		return fmt.Errorf("%s: %d wrong answers, first: %w", w.name, len(r.wrong), r.wrong[0])
	}
	return nil
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runChildren runs every workload in a child process of its own, so no
// workload inherits another's heap, caches or connections. Each child gets
// the parent's flags plus its -workload.
func runChildren(ctx context.Context, args []string, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var errs []error
	for _, w := range workloads {
		cmd := exec.CommandContext(ctx, exe, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.name, err))
		}
	}
	return errors.Join(errs...)
}

// printRecord prints the run's metrics one per line, then its result as the
// last line.
func printRecord(w io.Writer, r record) error {
	line := r.line()
	mode := "timed"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d, %gs window): correct=%v attempted=%d failed=%d\n",
		r.Workload, mode, r.Seed, r.Seconds, line.Correct, line.Attempted, line.Failed)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := line.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
