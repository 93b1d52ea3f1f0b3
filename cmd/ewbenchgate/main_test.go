package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/dsp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSTFTCompute/band-4         	    1406	   1630957 ns/op	  116800 B/op	       3 allocs/op
BenchmarkSTFTCompute/band-4         	    1428	   1530721 ns/op	  116800 B/op	       3 allocs/op
BenchmarkSTFTCompute/band-4         	    1440	   1829650 ns/op	  116800 B/op	       3 allocs/op
BenchmarkStreamFeed1024-4           	     100	  10000000 ns/op	     500 B/op	       7 allocs/op
PASS
ok  	repro/internal/dsp	8.374s
`

func parseSample(t *testing.T) map[string]measurement {
	t.Helper()
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBenchTakesMinimaAndStripsProcSuffix(t *testing.T) {
	got := parseSample(t)
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	band, ok := got["BenchmarkSTFTCompute/band"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", got)
	}
	if band.NsPerOp != 1530721 {
		t.Errorf("band ns/op = %v, want the minimum 1530721", band.NsPerOp)
	}
	if band.AllocsPerOp != 3 {
		t.Errorf("band allocs/op = %d, want 3", band.AllocsPerOp)
	}
	if feed := got["BenchmarkStreamFeed1024"]; feed.AllocsPerOp != 7 {
		t.Errorf("feed allocs/op = %d, want 7", feed.AllocsPerOp)
	}
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	got := parseSample(t)
	base := baseline{Benchmarks: map[string]baselineEntry{
		// Measured minimum 1530721 is an 8% regression over this: passes.
		"BenchmarkSTFTCompute/band": {NsPerOp: 1417000, AllocsPerOp: 3},
		"BenchmarkStreamFeed1024":   {NsPerOp: 10000000, AllocsPerOp: 7},
	}}
	if failures := check(base, got, 0.20); len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestCheckFailsOnRegression(t *testing.T) {
	got := parseSample(t)
	base := baseline{Benchmarks: map[string]baselineEntry{
		// Measured minimum 1530721 is a 53% regression over this.
		"BenchmarkSTFTCompute/band": {NsPerOp: 1000000, AllocsPerOp: 3},
	}}
	failures := check(base, got, 0.20)
	if len(failures) != 1 || !strings.Contains(failures[0], "exceeds baseline") {
		t.Fatalf("failures = %v, want one ns/op regression", failures)
	}
}

func TestCheckFailsOnAllocChange(t *testing.T) {
	got := parseSample(t)
	base := baseline{Benchmarks: map[string]baselineEntry{
		"BenchmarkSTFTCompute/band": {NsPerOp: 1600000, AllocsPerOp: 0},
	}}
	failures := check(base, got, 0.20)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Fatalf("failures = %v, want one allocation failure", failures)
	}
}

func TestCheckFailsOnMissingBenchmark(t *testing.T) {
	got := parseSample(t)
	base := baseline{Benchmarks: map[string]baselineEntry{
		"BenchmarkGone": {NsPerOp: 100, AllocsPerOp: 0},
	}}
	failures := check(base, got, 0.20)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("failures = %v, want one missing-benchmark failure", failures)
	}
}

// streamFeedLine is a verbatim BenchmarkStreamFeed1024 result line: the
// MB/s (b.SetBytes) and audio_s/s (b.ReportMetric) fields sit between
// ns/op and the -benchmem pair.
const streamFeedLine = "BenchmarkStreamFeed1024-2   \t       5\t  66823786 ns/op\t   7.09 MB/s\t        20.10 audio_s/s\t16932284 B/op\t    1366 allocs/op\n"

func TestParseBenchReadsAllocsPastCustomMetrics(t *testing.T) {
	got, err := parseBench(strings.NewReader(streamFeedLine))
	if err != nil {
		t.Fatal(err)
	}
	feed, ok := got["BenchmarkStreamFeed1024"]
	if !ok {
		t.Fatalf("StreamFeed1024 line not parsed: %v", got)
	}
	if feed.NsPerOp != 66823786 {
		t.Errorf("ns/op = %v, want 66823786", feed.NsPerOp)
	}
	if feed.AllocsPerOp != 1366 {
		t.Errorf("allocs/op = %d, want 1366 (custom metrics must not hide the -benchmem fields)", feed.AllocsPerOp)
	}
}

func TestCheckFailsWithoutAllocsField(t *testing.T) {
	got, err := parseBench(strings.NewReader("BenchmarkStreamFeed1024-2  5  66823786 ns/op  7.09 MB/s  20.10 audio_s/s\n"))
	if err != nil {
		t.Fatal(err)
	}
	base := baseline{Benchmarks: map[string]baselineEntry{
		"BenchmarkStreamFeed1024": {NsPerOp: 66823786, AllocsPerOp: 0},
	}}
	failures := check(base, got, 0.20)
	if len(failures) != 1 || !strings.Contains(failures[0], "no allocs/op") {
		t.Fatalf("failures = %v, want one missing-allocs failure (a line without allocs/op must not read as 0)", failures)
	}
}

func TestCheckAllocBand(t *testing.T) {
	got, err := parseBench(strings.NewReader(streamFeedLine))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		allocs, band int64
		pass         bool
	}{
		{1366, 0, true},
		{1364, 0, false},
		{1364, 2, true},
		{1376, 10, true},
		{1355, 10, false},
	} {
		base := baseline{Benchmarks: map[string]baselineEntry{
			"BenchmarkStreamFeed1024": {NsPerOp: 66823786, AllocsPerOp: tc.allocs, AllocsBand: tc.band},
		}}
		if failures := check(base, got, 0.20); (len(failures) == 0) != tc.pass {
			t.Errorf("baseline %d±%d against 1366: failures %v, want pass=%v", tc.allocs, tc.band, failures, tc.pass)
		}
	}
}
