// Command benchdiff compares two result files of the study benchmark.
//
//	go run ./bench/benchdiff old.jsonl new.jsonl
//
// It reads the bounds and directions from BENCHMARK.json, takes the median
// of every end-to-end metric per workload in each file, and prints one row
// per (workload, metric) with both medians and their ratio. It exits
// non-zero when a metric worsened by more than its bound, when a workload's
// share of failed operations rose, or when two runs of the same workload
// and seed disagree on the report's SHA-256.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"clientres/bench/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's declaration")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-spec BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	spec, err := benchfmt.LoadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	older, err := benchfmt.ReadResults(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	newer, err := benchfmt.ReadResults(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	if problems := diff(spec, older, newer, stdout); problems > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d problem(s)\n", problems)
		return 1
	}
	return 0
}

// side is what one file says about one workload.
type side struct {
	values            map[string][]float64
	attempted, failed int64
	shaBySeed         map[int64]string
}

// collect groups the end-to-end result lines of a file by workload.
func collect(results []benchfmt.Result) map[string]*side {
	out := make(map[string]*side)
	for _, r := range results {
		if r.Traced {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: make(map[string][]float64), shaBySeed: make(map[int64]string)}
			out[r.Workload] = s
		}
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
		s.attempted += r.OpsAttempted
		s.failed += r.OpsFailed
		if r.ReportSHA != "" {
			s.shaBySeed[r.Stamp.Seed] = r.ReportSHA
		}
	}
	return out
}

func share(failed, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// diff prints the comparison and returns the number of problems found.
func diff(spec *benchfmt.Spec, older, newer []benchfmt.Result, w io.Writer) (problems int) {
	a, b := collect(older), collect(newer)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s  %-22s %8s  %s\n",
		"workload", "metric", "old median", "new median", "new/old (base: old)", "bound", "verdict")
	for _, wl := range spec.Workloads {
		sa, sb := a[wl.Name], b[wl.Name]
		if sa == nil || sb == nil {
			fmt.Fprintf(w, "%-14s missing from one of the files\n", wl.Name)
			problems++
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-20s missing from one of the files\n", wl.Name, m.Name)
				problems++
				continue
			}
			ma, mb := benchfmt.Median(va), benchfmt.Median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = fmt.Sprintf("WORSE by %.1f%%", 100*worse)
				problems++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f  %-22s %7.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, fmt.Sprintf("%.4f of %.4g %s", mb/ma, ma, m.Unit), 100*m.Bound, verdict)
		}
		if fa, fb := share(sa.failed, sa.attempted), share(sb.failed, sb.attempted); fb > fa {
			fmt.Fprintf(w, "%-14s ops_failed share rose from %.6f (%d of %d) to %.6f (%d of %d)\n",
				wl.Name, fa, sa.failed, sa.attempted, fb, sb.failed, sb.attempted)
			problems++
		}
		seeds := make([]int64, 0, len(sa.shaBySeed))
		for seed := range sa.shaBySeed {
			seeds = append(seeds, seed)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, seed := range seeds {
			if other, ok := sb.shaBySeed[seed]; ok && other != sa.shaBySeed[seed] {
				fmt.Fprintf(w, "%-14s seed %d: report_sha256 %s became %s\n", wl.Name, seed, sa.shaBySeed[seed], other)
				problems++
			}
		}
	}
	return problems
}
