// Package benchfmt holds the two file formats the benchmark's tools share:
// BENCHMARK.json, which declares the workloads, metrics and bounds, and the
// result lines the runner prints and benchdiff compares.
package benchfmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Metric is one metric declared in BENCHMARK.json.
type Metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the share of the old median by which an end-to-end metric
	// may worsen before the change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// Workload is one workload declared in BENCHMARK.json.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// LoadSpec reads a BENCHMARK.json, refusing keys it does not know.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Reading is one metric value on a result line.
type Reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Stamp says where and on what a result was measured.
type Stamp struct {
	Commit     string `json:"commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       int64  `json:"seed"`
}

// Result is one workload's result line.
type Result struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	Passes   int     `json:"passes"`
	// Op is what ops_per_s, ops_attempted and ops_failed count.
	Op           string             `json:"op"`
	OpsAttempted int64              `json:"ops_attempted"`
	OpsFailed    int64              `json:"ops_failed"`
	ReportSHA    string             `json:"report_sha256,omitempty"`
	Metrics      map[string]Reading `json:"metrics"`
	Stamp        Stamp              `json:"stamp"`
}

// ReadResults reads the result lines of a file, skipping lines of other
// shapes (the driver's line of a single-workload run, blank lines).
func ReadResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var r Result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// Median returns the middle value (the mean of the two middle values for an
// even count); 0 for an empty slice.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
