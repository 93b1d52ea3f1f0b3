// Command ewbenchgate is the benchmark regression gate: it parses `go
// test -bench` output on stdin, reduces repeated runs of each benchmark
// to their minimum (the least-noisy estimate on a shared machine), and
// compares the result against a committed baseline file. The gate fails
// when any baselined benchmark slows down by more than the tolerance,
// moves its allocation count outside its baselined band, reports no
// allocation count at all, or is missing from the input — a silent drop
// must not read as a pass.
//
// Usage:
//
//	go test -run '^$' -bench B -benchmem -count 3 ./pkg | ewbenchgate [flags]
//
// With -update the measured results overwrite the baseline instead of
// being checked, which is how a deliberate performance change lands: the
// reviewer sees the baseline diff next to the code that caused it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baseline is the committed reference measurement set.
type baseline struct {
	// Note records where the numbers came from; informational only.
	Note       string                   `json:"note,omitempty"`
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// AllocsBand is the allowed absolute allocs/op deviation; zero gates
	// the count exactly. A band is for benchmarks whose count carries
	// runtime noise the code under test does not control (the testing
	// package reads process-wide malloc counters, so runtime work a GC
	// cycle triggers lands in the count); the baseline's note says why.
	AllocsBand int64 `json:"allocs_band,omitempty"`
}

// measurement is one benchmark's reduced result across -count runs.
type measurement struct {
	NsPerOp     float64
	AllocsPerOp int64
	// NoAllocs records that some run's line carried no allocs/op field
	// (the benchmark ran without -benchmem or ReportAllocs); the gate
	// treats that as a failure rather than reading the count as zero.
	NoAllocs bool
}

// procSuffix is the trailing -N GOMAXPROCS suffix of a benchmark name,
// stripped so baselines do not depend on the machine's core count.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseLine splits one `go test -bench` result line into the benchmark
// name and its value/unit pairs, e.g.
//
//	BenchmarkStreamFeed1024-4  5  66823786 ns/op  7.09 MB/s  20.10 audio_s/s  16932284 B/op  1366 allocs/op
//
// yields {"ns/op": 66823786, "MB/s": 7.09, ..., "allocs/op": 1366}.
// Custom metrics from b.SetBytes and b.ReportMetric may sit anywhere
// among the pairs. ok is false for anything that is not a well-formed
// result line with an ns/op pair; a baselined benchmark whose lines all
// fail to parse then reads as missing, which fails the gate.
func parseLine(line string) (name string, metrics map[string]float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return "", nil, false
	}
	metrics = make(map[string]float64, (len(f)-2)/2)
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[f[i+1]] = v
	}
	if _, ok := metrics["ns/op"]; !ok {
		return "", nil, false
	}
	return procSuffix.ReplaceAllString(f[0], ""), metrics, true
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file to check against (or write with -update)")
	tol := flag.Float64("tol", 0.20, "allowed fractional ns/op regression before the gate fails")
	update := flag.Bool("update", false, "write measured results to the baseline instead of checking")
	flag.Parse()

	got, err := parseBench(os.Stdin)
	if err != nil {
		fatal("parse: %v", err)
	}
	if len(got) == 0 {
		fatal("no benchmark result lines on stdin")
	}

	if *update {
		if err := writeBaseline(*baselinePath, got); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("ewbenchgate: wrote %d benchmarks to %s\n", len(got), *baselinePath)
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal("%v", err)
	}
	failures := check(base, got, *tol)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "ewbenchgate: FAIL %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "ewbenchgate: %d regression(s) against %s (tolerance %.0f%%); if intentional, re-run with -update and commit the baseline\n",
			len(failures), *baselinePath, *tol*100)
		os.Exit(1)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		g := got[name]
		fmt.Printf("ewbenchgate: ok %-40s %12.0f ns/op (baseline %12.0f, %+5.1f%%), %d allocs/op (baseline %d±%d)\n",
			name, g.NsPerOp, b.NsPerOp, 100*(g.NsPerOp-b.NsPerOp)/b.NsPerOp, g.AllocsPerOp, b.AllocsPerOp, b.AllocsBand)
	}
}

// parseBench reduces stdin's benchmark lines to per-name minima.
func parseBench(r io.Reader) (map[string]measurement, error) {
	got := make(map[string]measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, metrics, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		ns := metrics["ns/op"]
		allocs, hasAllocs := metrics["allocs/op"]
		cur, seen := got[name]
		if !seen || ns < cur.NsPerOp {
			cur.NsPerOp = ns
		}
		// Allocation counts must be stable across runs; keep the max so a
		// flaky allocation in any run surfaces.
		if !seen || int64(allocs) > cur.AllocsPerOp {
			cur.AllocsPerOp = int64(allocs)
		}
		cur.NoAllocs = cur.NoAllocs || !hasAllocs
		got[name] = cur
	}
	return got, sc.Err()
}

// check compares measured minima against the baseline. Every baselined
// benchmark must be present, within the ns/op tolerance, and report an
// allocation count within its baselined band.
func check(base baseline, got map[string]measurement, tol float64) []string {
	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		g, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from bench output", name))
			continue
		}
		if limit := want.NsPerOp * (1 + tol); g.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f by %.1f%% (limit %.0f%%)",
				name, g.NsPerOp, want.NsPerOp, 100*(g.NsPerOp-want.NsPerOp)/want.NsPerOp, tol*100))
		}
		switch d := g.AllocsPerOp - want.AllocsPerOp; {
		case g.NoAllocs:
			failures = append(failures, fmt.Sprintf("%s: no allocs/op in bench output (run with -benchmem)", name))
		case d > want.AllocsBand || -d > want.AllocsBand:
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, baseline %d±%d",
				name, g.AllocsPerOp, want.AllocsPerOp, want.AllocsBand))
		}
	}
	return failures
}

func readBaseline(path string) (baseline, error) {
	var base baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return base, fmt.Errorf("baseline %s: no benchmarks", path)
	}
	return base, nil
}

// writeBaseline records got as the new baseline. Allocation bands and
// the note carry over from the existing file, so re-baselining never
// silently tightens or widens a gate.
func writeBaseline(path string, got map[string]measurement) error {
	base := baseline{
		Note:       "minima of -count runs; update via `make bench-baseline`",
		Benchmarks: make(map[string]baselineEntry, len(got)),
	}
	old, err := readBaseline(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if old.Note != "" {
		base.Note = old.Note
	}
	for name, g := range got {
		if g.NoAllocs {
			return fmt.Errorf("%s: no allocs/op in bench output (run with -benchmem)", name)
		}
		base.Benchmarks[name] = baselineEntry{
			NsPerOp:     g.NsPerOp,
			AllocsPerOp: g.AllocsPerOp,
			AllocsBand:  old.Benchmarks[name].AllocsBand,
		}
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ewbenchgate: "+format+"\n", args...)
	os.Exit(1)
}
