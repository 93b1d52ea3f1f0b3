package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.95, 200}, {0.99, 1000}} {
		if got := minSamples(c.q); got != c.want {
			t.Errorf("minSamples(%g) = %d, want %d", c.q, got, c.want)
		}
		if tailOK(c.want-1, c.q) || !tailOK(c.want, c.q) {
			t.Errorf("tailOK(%g) boundary is not at %d samples", c.q, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (ten samples beyond)", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	if xs[0] != 1000 {
		t.Error("quantile reordered its input")
	}
}

func sp(id, parent int64, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Session: "s1", Name: name, Start: start, End: end}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, "client.chunk", 0, 100),
		sp(2, 1, "http.handler", 10, 30),
		sp(3, 1, "http.handler", 20, 50),  // overlaps span 2: [10,50) counted once
		sp(4, 1, "http.handler", 90, 120), // reaches past the parent: clipped to [90,100)
		sp(5, 3, "serve.Feed", 25, 45),
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestLinkByContainmentPicksInnermost(t *testing.T) {
	spans := []span{
		sp(1, 0, "client.chunk", 0, 100),
		sp(2, 1, "http.handler", 10, 90),
		sp(3, 0, "serve.Feed", 20, 80),
		{ID: 4, Session: "s2", Name: "serve.Feed", Start: 20, End: 80}, // another session
	}
	linkByContainment(spans, serviceSpans, callerSpans)
	if spans[2].Parent != 2 {
		t.Errorf("serve.Feed parent = %d, want the handler (2)", spans[2].Parent)
	}
	if spans[3].Parent != 0 {
		t.Errorf("a span of another session was linked to %d", spans[3].Parent)
	}
	self := selfTimes(spans)
	if r := selfSumRatio(spans[:3], self); math.Abs(r-1) > 1e-12 {
		t.Errorf("layer self times sum to %g of the client span, want 1", r)
	}
}

// fakeSynth stands in for audio synthesis: a script whose length depends
// on the spec alone.
func fakeSynth(w wordSpec) (*script, error) {
	n := 100 + int(w.seed%50)
	return &script{name: w.word, ops: make([]op, n), words: []string{w.word}}, nil
}

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	span := 30 * time.Second
	schedule := func(seed uint64) []*wordSession {
		var all []*wordSession
		for j := 0; j < wordsSlots; j++ {
			s, err := slotSchedule(seed, j, span, fakeSynth)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range s {
				if w.arrival%chunkPeriod != time.Duration(j)*chunkPeriod/wordsSlots {
					t.Errorf("slot %d arrival %v is off its chunk phase", j, w.arrival)
				}
			}
			all = append(all, s...)
		}
		return all
	}
	a, b, c := schedule(7), schedule(7), schedule(8)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d sessions", len(a), len(b))
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i].arrival != b[i].arrival || a[i].sc.name != b[i].sc.name {
			t.Fatalf("same seed, session %d differs: %v %s vs %v %s", i, a[i].arrival, a[i].sc.name, b[i].arrival, b[i].sc.name)
		}
		if same && (a[i].arrival != c[i].arrival || a[i].sc.name != c[i].sc.name) {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
}

func TestAdversarialCellsCoverMatrix(t *testing.T) {
	a, b := adversarialCells(3), adversarialCells(3)
	if len(a) != 18 {
		t.Fatalf("%d cells, want one per environment × device × proficiency (18)", len(a))
	}
	combos := make(map[string]bool)
	for i, c := range a {
		if c != b[i] {
			t.Fatalf("same seed, cell %d differs: %s vs %s", i, c.Name(), b[i].Name())
		}
		combos[fmt.Sprint(c.Env, c.Device, c.Proficiency)] = true
	}
	if len(combos) != 18 {
		t.Errorf("%d distinct combinations, want 18", len(combos))
	}
}

func TestComparatorCountsMismatches(t *testing.T) {
	spec := wordSpec{word: "life", room: paperRooms[0], device: "mate9", writer: 0, prof: 0.8, seed: 2}
	sc, err := spec.synthesize()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := newRecognizer()
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStream()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := replay(st, rec, sc, len(sc.ops))
	if err != nil {
		t.Fatal(err)
	}
	again, err := replay(st, rec, sc, len(sc.ops))
	if err != nil {
		t.Fatal(err)
	}
	if bad, why := mismatches(again.outs, ref); bad != 0 {
		t.Fatalf("a Reset stream's replay differs from the first: %s", why)
	}
	if bad, _ := mismatches(ref.outs[:len(ref.outs)/2], ref); bad != 0 {
		t.Error("a transcript prefix was counted as a mismatch")
	}

	// Deliberately break one detection and one candidate score.
	k := -1
	for i, o := range ref.outs {
		if len(o.dets) > 0 && sc.ops[i].kind == opChunk {
			k = i
			break
		}
	}
	last := len(ref.outs) - 1
	if k < 0 || len(ref.outs[last].words) == 0 {
		t.Fatal("the test word produced no detection or no candidates")
	}
	got := make([]opOut, len(ref.outs))
	copy(got, ref.outs)
	got[k].dets = append([]detRec(nil), got[k].dets...)
	got[k].dets[0].End++
	got[last].words = append([]candRec(nil), got[last].words...)
	got[last].words[0].Score = math.Nextafter(got[last].words[0].Score, 0)
	if bad, why := mismatches(got, ref); bad != 2 {
		t.Errorf("mismatches = %d (%s), want 2", bad, why)
	}
	got[k].dets = got[k].dets[1:]
	if bad, _ := mismatches(got, ref); bad != 2 {
		t.Errorf("a dropped detection was not counted")
	}
	if bad, _ := mismatches(append(got, opOut{}), ref); bad != 3 {
		t.Errorf("an op beyond the reference was not counted")
	}
	if c := ref.carrierOp(ref.outs[k].dets[0].End); c > k {
		t.Errorf("carrier op %d comes after the op %d that returned the detection", c, k)
	}
}

func TestHistQuantile(t *testing.T) {
	le := []float64{1, 2, 4, math.Inf(1)}
	before := []float64{0, 0, 0, 0}
	after := []float64{0, 10, 20, 20}
	if got := histQuantile(le, before, after, 0.5); got != 2 {
		t.Errorf("p50 = %g, want 2", got)
	}
	if got := histQuantile(le, before, after, 0.25); got != 1.5 {
		t.Errorf("p25 = %g, want 1.5", got)
	}
	if got := histQuantile(le, after, after, 0.5); got != 0 {
		t.Errorf("p50 of an empty delta = %g, want 0", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metric names and units
// in step with the metric list in the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	d := &runData{tr: newTracer(), winStart: now, winEnd: now.Add(time.Second), setup: []float64{1}}
	for _, c := range []struct {
		got  report
		want []entry
	}{
		{d.endToEnd(), spec.EndToEnd},
		{perLayer("words-http-paced", d, d, &kernelTimes{}), spec.PerLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(c.got), len(c.want))
		}
		for _, e := range c.want {
			m, ok := c.got[e.Name]
			if !ok {
				t.Errorf("%s is listed but not reported", e.Name)
			} else if m.Unit != e.Unit {
				t.Errorf("%s reported in %s, listed in %s", e.Name, m.Unit, e.Unit)
			}
		}
	}
}
