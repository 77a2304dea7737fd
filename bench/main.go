// Command bench is the study benchmark: six workloads over the
// fetch → fingerprint → store → collect → report line, each measured end to
// end through the product's entry points and, on a separate traced run,
// layer by layer. See README.md beside this file.
//
//	go run ./bench -workload crawl-live -seed 1 -seconds 10 -trace 0
//	go run ./bench -seed 1                      # every workload, a child process each
//	go run ./bench -seed 1 -trace trace.jsonl   # the traced run, spans kept
//	go run ./bench -summarise trace.jsonl       # per-layer metrics of a kept trace
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"clientres/bench/benchfmt"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// gateError is a failed correctness gate: the run ends with a non-zero
// exit and no result line, never with a number.
type gateError struct{ msg string }

func (e gateError) Error() string { return "gate: " + e.msg }

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   bool                        `json:"correct"`
	Attempted int64                       `json:"attempted"`
	Failed    int64                       `json:"failed"`
	Metrics   map[string]benchfmt.Reading `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload only (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed region")
	trace := fs.String("trace", "0", "0: end-to-end run; 1: traced run; a file name: traced run, spans written there")
	summarise := fs.String("summarise", "", "print the per-layer metrics of this trace file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *summarise != "":
		err = summariseFile(*summarise, stdout)
	case *name == "":
		err = runSet(*seed, *seconds, *trace, stdout, stderr)
	default:
		err = runOne(*name, *seed, *seconds, *trace, fullShape, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its result line and,
// last, the driver's line.
func runOne(name string, seed int64, seconds float64, trace string, sh shape, stdout io.Writer) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer removeAll(dir)
	var tr *tracer
	if trace != "0" {
		tr = newTracer(name)
	}
	m, err := measure(w, &env{seed: seed, sh: sh, dir: dir}, seconds, tr)
	if err != nil {
		return err
	}
	res := m.result
	if keepsSpans(trace) {
		if err := writeSpans(trace, tr.spans); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(res); err != nil {
		return err
	}
	return enc.Encode(driverLine{Correct: true, Attempted: res.OpsAttempted, Failed: res.OpsFailed, Metrics: res.Metrics})
}

// keepsSpans reports whether -trace names a file to write the spans to.
func keepsSpans(trace string) bool { return trace != "0" && trace != "1" }

// scratchDir makes the run's private directory under the working
// directory: a run reads and writes only inside its checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// measurement is what measure found: the result line, whose metrics are the
// end-to-end ones of an untraced run and the per-layer ones of a traced run,
// and both sets of values by name (layers is nil on an untraced run; on a
// traced run endToEnd comes from its one pass through the product's entry
// points).
type measurement struct {
	result           *benchfmt.Result
	endToEnd, layers map[string]float64
}

// measure sets the workload up, runs its timed region for the given time,
// checks every gate and returns the result.
func measure(w workload, e *env, seconds float64, tr *tracer) (*measurement, error) {
	// Set up several times; setup_s is the median and the last instance is
	// the one measured. A set-up of a few milliseconds is repeated more
	// often, up to three times as often while the set-ups so far took under
	// a second together: its median would otherwise move with every hiccup.
	var inst instance
	var setups []float64
	var total float64
	for r := 0; r < e.sh.setupReps || (r < 3*e.sh.setupReps && total < 1); r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	defer inst.close()

	var passes []pass
	runPass := func(traced bool) error {
		var p pass
		var err error
		if traced {
			p, err = inst.tracedPass(tr)
		} else {
			p, err = inst.pass()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if want := inst.wantSHA(); want != "" && p.sha != want {
			return gateError{fmt.Sprintf("%s: report %s, its reference %s", w.name, p.sha, want)}
		}
		if len(passes) > 0 && p.sha != passes[0].sha {
			return gateError{fmt.Sprintf("%s: pass %d reports %s, the first pass %s", w.name, len(passes)+1, p.sha, passes[0].sha)}
		}
		passes = append(passes, p)
		return nil
	}
	if tr != nil {
		// A traced run starts with one pass through the product's own entry
		// points: the re-composed pipeline must reproduce its report, and
		// the two walls give the tracing overhead.
		tr.setPhase("run")
		if err := runPass(false); err != nil {
			return nil, err
		}
		end := int64(time.Since(tr.t0))
		tr.add(span{Layer: "trace", Op: "untraced_pass", Start: end - int64(passes[0].wall), End: end, Count: passes[0].ops})
	}
	start := time.Now()
	for first := true; first || time.Since(start).Seconds() < seconds; first = false {
		if err := runPass(tr != nil); err != nil {
			return nil, err
		}
	}
	// On a traced run the first pass is the product's and the rest are the
	// re-composed ones; the end-to-end values always come from the product's.
	product, counted := passes, passes
	if tr != nil {
		product, counted = passes[:1], passes[1:]
		tr.setPhase("probe")
		if err := inst.probe(tr); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", w.name, err)
		}
	}

	res := &benchfmt.Result{
		Workload: w.name, Traced: tr != nil, Seconds: seconds, Passes: len(counted), Op: w.op,
		ReportSHA: passes[0].sha, Metrics: make(map[string]benchfmt.Reading), Stamp: newStamp(e.seed),
	}
	for _, p := range counted {
		res.OpsAttempted += p.ops
		res.OpsFailed += p.failed
	}
	var rate, cpu, p50, p99, size []float64
	for _, p := range product {
		rate = append(rate, float64(p.ops)/p.wall.Seconds())
		cpu = append(cpu, us(p.cpu)/float64(p.ops))
		// What a caller of a study workload waits for is the study.
		lat := p.requestMS
		if lat == nil {
			lat = []float64{ms(p.wall)}
		}
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		size = append(size, float64(p.bytes)/float64(p.ops))
	}
	m := &measurement{result: res, endToEnd: map[string]float64{
		"setup_s":            benchfmt.Median(setups),
		"ops_per_s":          benchfmt.Median(rate),
		"cpu_us_per_op":      benchfmt.Median(cpu),
		"op_p50_ms":          benchfmt.Median(p50),
		"op_p99_ms":          benchfmt.Median(p99),
		"peak_rss_mb":        peakRSSMB(),
		"store_bytes_per_op": benchfmt.Median(size),
	}}
	values, defs := m.endToEnd, endToEnd
	if tr != nil {
		m.layers = layerMetrics(tr.spans)
		values, defs = m.layers, perLayer
	}
	if err := checkNames(w.name, values, defs); err != nil {
		return nil, err
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (tr == nil && v <= 0) {
			return nil, fmt.Errorf("%s: metric %s reads %v", w.name, d.name, v)
		}
		res.Metrics[d.name] = benchfmt.Reading{Value: v, Unit: d.unit}
	}
	return m, nil
}

func newStamp(seed int64) benchfmt.Stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return benchfmt.Stamp{
		Commit: commit, GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Seed: seed,
	}
}

// runSet runs every workload, each in a child process of its own (a
// re-exec of this binary, so heap, GC state, peak RSS and CPU time are per
// workload), checks the gates that span workloads, and prints one result
// line per workload.
func runSet(seed int64, seconds float64, trace string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if keepsSpans(trace) {
		if err := os.WriteFile(trace, nil, 0o644); err != nil {
			return err
		}
	}
	var results []benchfmt.Result
	var lines [][]byte
	for _, w := range workloads {
		childTrace := trace
		if keepsSpans(trace) {
			childTrace = trace + ".part"
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", childTrace)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, _, _ := bytes.Cut(out.Bytes(), []byte("\n"))
		var res benchfmt.Result
		if err := json.Unmarshal(line, &res); err != nil || res.Workload != w.name {
			return fmt.Errorf("%s: no result line in the child's output", w.name)
		}
		results, lines = append(results, res), append(lines, line)
		if childTrace != trace {
			if err := appendFile(trace, childTrace); err != nil {
				return err
			}
		}
	}
	if err := crossGates(results); err != nil {
		return err
	}
	for _, line := range lines {
		if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

// sameReport lists the workloads whose reports must be byte-identical:
// they run the same study by different routes.
var sameReport = [][]string{
	{"crawl-live", "crawl-replay", "dist-crawl"},
	{"direct-write", "store-analyze"},
}

// crossGates checks report equality across the workloads of one set.
func crossGates(results []benchfmt.Result) error {
	sha := make(map[string]string)
	for _, r := range results {
		sha[r.Workload] = r.ReportSHA
	}
	for _, group := range sameReport {
		for _, name := range group[1:] {
			if a, b := sha[group[0]], sha[name]; a != "" && b != "" && a != b {
				return gateError{fmt.Sprintf("%s reports %s, %s reports %s", group[0], a, name, b)}
			}
		}
	}
	return nil
}

func appendFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	f, err := os.OpenFile(dst, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, in); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Remove(src)
}

// summariseFile prints the per-layer metric lines of a kept trace, one JSON
// line per workload, and fails if they are not exactly the names
// BENCHMARK.json declares.
func summariseFile(path string, stdout io.Writer) error {
	byWorkload, order, err := readSpans(path)
	if err != nil {
		return err
	}
	if len(order) == 0 {
		return errors.New(path + ": no spans")
	}
	spec, err := benchfmt.LoadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := checkDefs("per_layer", spec.PerLayer, perLayer); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	for _, name := range order {
		values := layerMetrics(byWorkload[name])
		if err := checkNames(name, values, perLayer); err != nil {
			return err
		}
		metrics := make(map[string]benchfmt.Reading, len(perLayer))
		for _, d := range perLayer {
			metrics[d.name] = benchfmt.Reading{Value: values[d.name], Unit: d.unit}
		}
		if err := enc.Encode(struct {
			Workload string                      `json:"workload"`
			Metrics  map[string]benchfmt.Reading `json:"metrics"`
		}{name, metrics}); err != nil {
			return err
		}
	}
	return nil
}
