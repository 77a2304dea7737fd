//go:build linux

// Command scaleprobe measures how the two store-shaped sides of the study
// scale with the population: for each size it runs cmd/gendata over size ×
// 201 weeks, then cmd/analyze over the store gendata wrote, and prints each
// side's wall time, observations per second and peak RSS. Peak RSS is the
// child's rusage Maxrss, so no external timing tool is needed. The analyze
// line also prints the SHA-256 of the report, so two builds can be checked
// for byte-identical output at the same sizes.
//
// Run it from the module root; it builds both commands from that checkout
// into a temporary directory, which it removes when done:
//
//	go run ./scripts/scaleprobe 5000 20000
//
// Every store is generated with -seed 1 -bundle-frac 0.3 and removed after
// its analyze run. The machine's core count and memory shape the numbers:
// record them next to any result. Maxrss is read in Linux's units, so the
// probe builds on Linux only.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// weeks is the paper's study length; the probe scales domains only.
const weeks = 201

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/scaleprobe SIZE [SIZE...]   (domains; each × 201 weeks)")
		os.Exit(2)
	}
	var sizes []int
	for _, a := range os.Args[1:] {
		n, err := strconv.Atoi(a)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "scaleprobe: size %q is not a positive domain count\n", a)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}
	if err := run(sizes); err != nil {
		fmt.Fprintf(os.Stderr, "scaleprobe: %v\n", err)
		os.Exit(1)
	}
}

func run(sizes []int) error {
	dir, err := os.MkdirTemp("", "scaleprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir, "./cmd/gendata", "./cmd/analyze")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building gendata and analyze: %w", err)
	}
	fmt.Printf("# %s/%s, %d CPUs, %d weeks per domain\n", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), weeks)
	fmt.Printf("%-8s %-8s %10s %12s %10s  %s\n", "domains", "side", "wall_s", "obs_per_s", "rss_mb", "report_sha256")
	for _, n := range sizes {
		storePath := filepath.Join(dir, fmt.Sprintf("d%d.store", n))
		shape := []string{"-domains", strconv.Itoa(n), "-weeks", strconv.Itoa(weeks)}
		obs := n * weeks
		gen, err := measure(io.Discard, obs, filepath.Join(dir, "gendata"),
			append(shape, "-seed", "1", "-bundle-frac", "0.3", "-quiet", "-out", storePath)...)
		if err != nil {
			return fmt.Errorf("gendata %d: %w", n, err)
		}
		gen.print(n, "gendata", "")
		report := sha256.New()
		an, err := measure(report, obs, filepath.Join(dir, "analyze"), append(shape, "-in", storePath)...)
		if err != nil {
			return fmt.Errorf("analyze %d: %w", n, err)
		}
		an.print(n, "analyze", hex.EncodeToString(report.Sum(nil)))
		if err := os.RemoveAll(storePath); err != nil {
			return err
		}
	}
	return nil
}

// sample is one child process's cost.
type sample struct {
	wall   time.Duration
	obs    int
	maxRSS int64 // bytes
}

func (s sample) print(domains int, side, sha string) {
	fmt.Printf("%-8d %-8s %10.1f %12.0f %10.1f  %s\n", domains, side,
		s.wall.Seconds(), float64(s.obs)/s.wall.Seconds(), float64(s.maxRSS)/(1<<20), sha)
}

// measure runs bin with args, its stdout into out, and reports its wall
// time and peak resident set over obs observations.
func measure(out io.Writer, obs int, bin string, args ...string) (sample, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return sample{}, err
	}
	s := sample{wall: time.Since(start), obs: obs}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.maxRSS = int64(ru.Maxrss) * 1024 // Linux reports kilobytes
	}
	return s, nil
}
