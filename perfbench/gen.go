package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/acoustic"
	"repro/internal/capture"
	"repro/internal/lexicon"
	"repro/internal/participant"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stroke"
)

// Every input is synthesized from the run seed before timing starts. The
// program only ever sees the PCM16 bytes built here.
const (
	sampleRate   = 44100
	chunkSamples = 2205 // 50 ms at 44.1 kHz, the ewload default
	chunkPeriod  = 50 * time.Millisecond
)

type opKind uint8

const (
	opChunk opKind = iota
	opFlush
)

// op is one client input: an audio chunk or a flush.
type op struct {
	kind    opKind
	pcm     []byte // PCM16 LE body of a chunk; nil for a flush
	samples int
}

// script is one session's input: the ordered ops a client sends and the
// word each flush closes.
type script struct {
	name  string
	ops   []op
	words []string // words[i] is the word written before the i-th flush
}

// newScript cuts samples into chunks (chunkAt gives the size of the
// chunk starting at a sample index; nil means 50 ms throughout) and
// places a flush after the chunk holding each word boundary (bounds are
// sample indices, one per word but the last) and one at the end.
func newScript(name string, samples []float64, words []string, bounds []int, chunkAt func(lo int) int) *script {
	s := &script{name: name, words: words}
	b := 0
	for lo, hi := 0, 0; lo < len(samples); lo = hi {
		hi = min(lo+chunkSamples, len(samples))
		if chunkAt != nil {
			hi = min(lo+chunkAt(lo), len(samples))
		}
		s.ops = append(s.ops, op{kind: opChunk, pcm: serve.EncodePCM16(samples[lo:hi]), samples: hi - lo})
		for b < len(bounds) && bounds[b] < hi {
			s.ops = append(s.ops, op{kind: opFlush})
			b++
		}
	}
	for ; b < len(words); b++ {
		s.ops = append(s.ops, op{kind: opFlush})
	}
	return s
}

// decodePCM16 mirrors the server's wire decoding, so an in-process replay
// sees exactly the samples a served session sees.
func decodePCM16(b []byte) []float64 {
	out := make([]float64, len(b)/2)
	for i := range out {
		out[i] = float64(int16(binary.LittleEndian.Uint16(b[2*i:]))) / 32768
	}
	return out
}

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// paperRooms are the paper's three evaluation environments (§IV-B).
var paperRooms = []acoustic.EnvironmentKind{acoustic.MeetingRoom, acoustic.LabArea, acoustic.RestingZone}

// wordLetters is the length of every words-http-paced word (one stroke
// per letter, about 8 s of writing). One length keeps each session's
// final window, and so its flush cost, alike across seeds.
const wordLetters = 4

// wordPool groups the 600 most frequent lexicon words by length:
// pool[n] holds the words of n letters.
func wordPool() map[int][]string {
	out := make(map[int][]string)
	for _, w := range lexicon.DefaultWords()[:600] {
		out[len(w)] = append(out[len(w)], w)
	}
	return out
}

// wordSpec is one single-word session: who writes which word where.
type wordSpec struct {
	word   string
	room   acoustic.EnvironmentKind
	device string
	writer int
	prof   float64
	seed   uint64
}

// wordProficiencies are the practice levels the word sessions cycle
// through, from an occasional writer to a trained one.
var wordProficiencies = []float64{0.5, 0.6, 0.7, 0.8, 0.9}

// drawWordSpec draws the i-th session of a stratified sequence: room,
// device, writer and proficiency cycle with i, so every run offers the
// same mix of conditions and writing speeds, while the word, the motor
// noise and the acoustic seed come from rng.
func drawWordSpec(rng *rand.Rand, pool map[int][]string, i int) wordSpec {
	devices := acoustic.DeviceNames()
	words := pool[wordLetters]
	return wordSpec{
		word:   words[rng.IntN(len(words))],
		room:   paperRooms[i%len(paperRooms)],
		device: devices[i%len(devices)],
		writer: i % 6,
		prof:   wordProficiencies[i%len(wordProficiencies)],
		seed:   rng.Uint64(),
	}
}

func (w wordSpec) synthesize() (*script, error) {
	dev, err := acoustic.DeviceByName(w.device)
	if err != nil {
		return nil, err
	}
	p := participant.SixParticipants()[w.writer].WithProficiency(w.prof)
	rec, err := capture.PerformWord(participant.NewSession(p, w.seed), stroke.DefaultScheme(), w.word,
		dev, acoustic.StandardEnvironment(w.room), w.seed)
	if err != nil {
		return nil, fmt.Errorf("synthesize %q: %w", w.word, err)
	}
	name := fmt.Sprintf("%s.%s.%s.P%d", w.word, w.room.Slug(), w.device, w.writer+1)
	return newScript(name, rec.Signal.Samples, []string{w.word}, nil, nil), nil
}

// phraseSpec is one long continuous session: several corpus phrases
// written back to back in the meeting room on the Mate 9, confirming each
// word with a flush. Room and device are fixed because the workload
// stresses session age, not acoustics; the words workload varies those.
type phraseSpec struct {
	words  []string
	writer int
	seed   uint64
}

// drawPhraseSpec concatenates seeded corpus phrases until the session
// holds at least minWords words (about 5 s of audio each).
func drawPhraseSpec(rng *rand.Rand, minWords int) phraseSpec {
	phrases := lexicon.Phrases()
	var words []string
	for len(words) < minWords {
		words = append(words, strings.Fields(phrases[rng.IntN(len(phrases))])...)
	}
	return phraseSpec{words: words, writer: rng.IntN(6), seed: rng.Uint64()}
}

func (ps phraseSpec) synthesize() (*script, error) {
	scheme := stroke.DefaultScheme()
	seqs := make([]stroke.Sequence, len(ps.words))
	for i, w := range ps.words {
		q, err := scheme.Encode(w)
		if err != nil {
			return nil, err
		}
		seqs[i] = q
	}
	p := participant.SixParticipants()[ps.writer].WithProficiency(0.8)
	perf, counts, err := participant.NewSession(p, ps.seed).PerformWords(seqs)
	if err != nil {
		return nil, err
	}
	scene := &acoustic.Scene{
		Device:     acoustic.Mate9(),
		Env:        acoustic.StandardEnvironment(acoustic.MeetingRoom),
		Reflectors: acoustic.HandReflectors(perf.Finger),
		Duration:   perf.Finger.Duration(),
		Seed:       ps.seed,
	}
	sig, err := scene.Synthesize()
	if err != nil {
		return nil, err
	}
	// A word boundary sits halfway through the gap between the word's
	// last stroke and the next word's first.
	var bounds []int
	k := 0
	for _, n := range counts[:len(counts)-1] {
		k += n
		t := (perf.Spans[k-1].End + perf.Spans[k].Start) / 2
		bounds = append(bounds, int(t*sampleRate))
	}
	name := fmt.Sprintf("phrase.%dw.P%d", len(ps.words), ps.writer+1)
	return newScript(name, sig.Samples, ps.words, bounds, phraseChunk), nil
}

// phraseChunk sizes a phrase session's chunks: 50 ms, except 1 s chunks
// from phraseYoungAge to phraseWarmAge. The fast-forward ages a session to
// the window's edge in a few dozen feeds instead of hundreds; the young
// feeds before it and every feed in the timed window stay 50 ms.
func phraseChunk(lo int) int {
	if lo >= phraseYoungAge*sampleRate && lo < phraseWarmAge*sampleRate {
		return sampleRate
	}
	return chunkSamples
}

// adversarialCells expands the adversarial matrix for this seed: café
// babble, vehicle cabin and second writer, crossed with three devices,
// both proficiency treatments and two seeded lexicon words (three and
// four letters). It keeps one word per environment × device × proficiency
// combination, alternating between the two, so each run holds all 18
// combinations and the same mix of word lengths, in seeded order.
func adversarialCells(seed uint64) []scenario.Cell {
	rng := newRand(seed, 3)
	pool := wordPool()
	words := []string{pool[3][rng.IntN(len(pool[3]))], pool[4][rng.IntN(len(pool[4]))]}
	all := scenario.Matrix{
		Name:         "adversarial",
		Environments: []acoustic.EnvironmentKind{acoustic.CafeBabble, acoustic.VehicleCabin, acoustic.SecondWriter},
		Devices:      []string{"mate9", "tablet", "budget"},
		Words:        words,
		Proficiencies: []scenario.Prof{
			{Level: 0.8, Drift: 0},
			{Level: 0.3, Drift: 0.1},
		},
		Seeds: []uint64{rng.Uint64N(1 << 32)},
	}.Expand()
	// Expand nests environment, device, word, proficiency: keep the word
	// whose index matches the parity of the other three indices. Each kept
	// cell gets its own seed, which also cycles the writer through the
	// roster.
	var cells []scenario.Cell
	for i, c := range all {
		env, dev, word, prof := i/12, (i/4)%3, (i/2)%2, i%2
		if (env+dev+prof)%2 == word {
			c.Seed += uint64(len(cells))
			cells = append(cells, c)
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

func cellScript(c scenario.Cell) (*script, error) {
	sig, err := c.Synthesize()
	if err != nil {
		return nil, err
	}
	return newScript(c.Name(), sig.Samples, []string{c.Word}, nil, nil), nil
}

// parallel runs fn(0..n-1) on at most GOMAXPROCS goroutines and returns
// the first error.
func parallel(n int, fn func(i int) error) error {
	workers := min(n, runtime.GOMAXPROCS(0))
	next := make(chan int, n) // sized to the number of sends
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
