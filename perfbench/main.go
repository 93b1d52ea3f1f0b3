// Command perfbench is the EchoWrite serving benchmark. It drives an
// in-process sharded ewserve on loopback and the bare pipeline/infer
// layers with seeded synthetic writers, checks every output against a
// single-threaded replay, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload words-http-paced --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the workload runs once untraced and once traced, and the result holds
// the per-layer metrics, including tracing overhead, while spans are
// written to -out. See perfbench/README.md for the workloads and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// setupReps is how many times a run builds its serving set-up; setup_s
// is the median.
const setupReps = 15

// sweepTraces is how many of the workload's traces the kernel sweep
// cuts windows from.
const sweepTraces = 4

type result struct {
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   report `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "words-http-paced, phrases-ws-saturated or adversarial-offline")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "length of the timed window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()
	res, err := run(*workload, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// pass runs the workload once, traced or not, on inputs prepared once.
type pass func(tr *tracer) (*runData, error)

func run(workload string, seed uint64, seconds int, traced bool, out string) (*result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	var (
		do      pass
		scripts []*script // the traces the kernel sweep cuts windows from
	)
	switch workload {
	case "words-http-paced":
		sessions, err := prepareWords(seed, seconds)
		if err != nil {
			return nil, err
		}
		for _, s := range sessions {
			scripts = append(scripts, s.sc)
		}
		do = func(tr *tracer) (*runData, error) { return runWords(sessions, seconds, tr) }
	case "phrases-ws-saturated":
		writers, err := preparePhrases(seed)
		if err != nil {
			return nil, err
		}
		for _, w := range writers {
			scripts = append(scripts, w.sc)
		}
		do = func(tr *tracer) (*runData, error) { return runPhrases(writers, seconds, tr) }
	case "adversarial-offline":
		cells, err := prepareOffline(seed)
		if err != nil {
			return nil, err
		}
		scripts = cells
		do = func(tr *tracer) (*runData, error) { return runOffline(cells, seconds, tr) }
	default:
		return nil, fmt.Errorf("unknown --workload %q", workload)
	}
	plain, err := do(nil)
	if err != nil {
		return nil, err
	}
	plain.warnTails()
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: plain.endToEnd()}
	if traced {
		d, err := do(newTracer())
		if err != nil {
			return nil, err
		}
		res.Attempted += d.attempted
		res.Failed += d.failed
		rec, err := newRecognizer()
		if err != nil {
			return nil, err
		}
		k, err := sweepKernels(scripts[:min(len(scripts), sweepTraces)], kernelWidth[workload], rec)
		if err != nil {
			return nil, err
		}
		res.Metrics = perLayer(workload, plain, d, k)
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
		if err := writeSpans(spans, d.tr.snapshot()); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
