package main

import (
	"io"
	"strings"
	"testing"

	"clientres/bench/benchfmt"
)

var testSpec = &benchfmt.Spec{
	Workloads: []benchfmt.Workload{{Name: "w"}},
	EndToEnd: []benchfmt.Metric{
		{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.1},
		{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	},
}

func line(seed int64, rate, p99 float64, failed int64, sha string) benchfmt.Result {
	return benchfmt.Result{
		Workload: "w", OpsAttempted: 1000, OpsFailed: failed, ReportSHA: sha,
		Metrics: map[string]benchfmt.Reading{
			"ops_per_s": {Value: rate, Unit: "op/s"},
			"op_p99_ms": {Value: p99, Unit: "ms"},
		},
		Stamp: benchfmt.Stamp{Seed: seed},
	}
}

func TestDiff(t *testing.T) {
	base := []benchfmt.Result{line(1, 100, 10, 0, "a"), line(2, 104, 10, 0, "b"), line(3, 96, 10, 0, "c")}
	for _, c := range []struct {
		name     string
		newer    []benchfmt.Result
		problems int
		says     string
	}{
		{"same", base, 0, ""},
		{"within bound both ways", []benchfmt.Result{line(1, 92, 10.9, 0, "a")}, 0, ""},
		{"improvement", []benchfmt.Result{line(1, 200, 5, 0, "a")}, 0, ""},
		{"slower", []benchfmt.Result{line(1, 85, 10, 0, "a")}, 1, "WORSE by 15.0%"},
		{"longer tail", []benchfmt.Result{line(1, 100, 12, 0, "a")}, 1, "WORSE by 20.0%"},
		{"more failures", []benchfmt.Result{line(1, 100, 10, 1, "a")}, 1, "ops_failed share rose"},
		{"another report", []benchfmt.Result{line(1, 100, 10, 0, "z")}, 1, "report_sha256 a became z"},
		{"other seed, other report", []benchfmt.Result{line(9, 100, 10, 0, "z")}, 0, ""},
		{"workload missing", nil, 1, "missing"},
		{"traced lines are ignored", []benchfmt.Result{line(1, 100, 10, 0, "a"), {Workload: "w", Traced: true}}, 0, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if got := diff(testSpec, base, c.newer, &out); got != c.problems {
				t.Errorf("%d problems, want %d\n%s", got, c.problems, out.String())
			}
			if !strings.Contains(out.String(), c.says) {
				t.Errorf("output lacks %q:\n%s", c.says, out.String())
			}
		})
	}
}

func TestUsage(t *testing.T) {
	if code := run([]string{"only-one.jsonl"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
