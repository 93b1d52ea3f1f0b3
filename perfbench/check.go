package main

import (
	"fmt"
	"math"

	"repro/internal/infer"
	"repro/internal/lexicon"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/stroke"
)

// detRec is one detection as the wire carries it.
type detRec struct {
	Stroke       string
	Start, End   int
	Contaminated bool
}

// candRec is one word candidate as the wire carries it.
type candRec struct {
	Word      string
	Score     float64
	Corrected bool
}

// opOut is what one op returned: its detections and, for a flush, the
// word candidates.
type opOut struct {
	dets  []detRec
	words []candRec
}

// reference is a single-threaded in-process replay of a script prefix:
// each op's output and the stream's frame count after it.
type reference struct {
	outs   []opOut
	frames []int
}

func newRecognizer() (*infer.Recognizer, error) {
	dict, err := lexicon.NewDictionary(stroke.DefaultScheme(), lexicon.DefaultWords())
	if err != nil {
		return nil, err
	}
	return infer.NewRecognizer(dict, infer.DefaultConfusion(), lexicon.DefaultBigram(), infer.DefaultConfig())
}

func fromPipeline(dets []pipeline.Detection) []detRec {
	out := make([]detRec, len(dets))
	for i, d := range dets {
		out[i] = detRec{Stroke: d.Stroke.String(), Start: d.Segment.Start, End: d.Segment.End, Contaminated: d.Contaminated}
	}
	return out
}

func fromWireDets(dets []serve.DetectionJSON) []detRec {
	out := make([]detRec, len(dets))
	for i, d := range dets {
		out[i] = detRec{Stroke: d.Stroke, Start: d.StartFrame, End: d.EndFrame, Contaminated: d.Contaminated}
	}
	return out
}

func fromCandidates(cands []infer.Candidate) []candRec {
	out := make([]candRec, len(cands))
	for i, c := range cands {
		out[i] = candRec{Word: c.Word, Score: c.Score, Corrected: c.Corrected}
	}
	return out
}

func fromWireCands(cands []serve.CandidateJSON) []candRec {
	out := make([]candRec, len(cands))
	for i, c := range cands {
		out[i] = candRec{Word: c.Word, Score: c.Score, Corrected: c.Corrected}
	}
	return out
}

// replay runs the first n ops of sc through st (Reset first) exactly as a
// served session runs them: chunks through Feed, flushes through Flush,
// and word candidates from rec on the strokes detected since the previous
// flush, as the service computes them.
func replay(st *pipeline.Stream, rec *infer.Recognizer, sc *script, n int) (*reference, error) {
	st.Reset()
	ref := &reference{outs: make([]opOut, 0, n), frames: make([]int, 0, n)}
	var seq stroke.Sequence
	for i, o := range sc.ops[:n] {
		var (
			dets []pipeline.Detection
			err  error
		)
		if o.kind == opChunk {
			dets, err = st.Feed(decodePCM16(o.pcm))
		} else {
			dets, err = st.Flush()
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s op %d: %w", sc.name, i, err)
		}
		out := opOut{dets: fromPipeline(dets)}
		for _, d := range dets {
			seq = append(seq, d.Stroke)
		}
		if o.kind == opFlush {
			if len(seq) > 0 {
				cands, err := rec.Recognize(seq)
				if err != nil {
					return nil, fmt.Errorf("replay %s op %d: %w", sc.name, i, err)
				}
				out.words = fromCandidates(cands)
			}
			seq = nil
		}
		ref.outs = append(ref.outs, out)
		ref.frames = append(ref.frames, st.FramesSeen())
	}
	return ref, nil
}

// mismatches compares a session's observed op outputs with the reference
// replay op by op and returns how many ops differ, with the first
// difference described. got may be a prefix of the reference; ops beyond
// the reference all count.
func mismatches(got []opOut, ref *reference) (int, string) {
	bad, first := 0, ""
	if extra := len(got) - len(ref.outs); extra > 0 {
		bad, first = extra, fmt.Sprintf("%d ops observed, reference has %d", len(got), len(ref.outs))
		got = got[:len(ref.outs)]
	}
	for i, g := range got {
		if why := diffOp(g, ref.outs[i]); why != "" {
			bad++
			if first == "" {
				first = fmt.Sprintf("op %d: %s", i, why)
			}
		}
	}
	return bad, first
}

func diffOp(got, want opOut) string {
	if len(got.dets) != len(want.dets) {
		return fmt.Sprintf("%d detections, reference %d", len(got.dets), len(want.dets))
	}
	for i := range got.dets {
		if got.dets[i] != want.dets[i] {
			return fmt.Sprintf("detection %d is %+v, reference %+v", i, got.dets[i], want.dets[i])
		}
	}
	if len(got.words) != len(want.words) {
		return fmt.Sprintf("%d candidates, reference %d", len(got.words), len(want.words))
	}
	for i := range got.words {
		g, w := got.words[i], want.words[i]
		if g.Word != w.Word || g.Corrected != w.Corrected || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("candidate %d is %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

// carrierOp returns the index of the op after which frame exists: the
// op whose input completed the detection's end frame.
func (r *reference) carrierOp(frame int) int {
	for i, f := range r.frames {
		if f > frame {
			return i
		}
	}
	return len(r.frames) - 1
}

// accuracy scores the words a transcript confirmed: for each flush among
// the first len(outs) ops, whether the strokes detected since the
// previous flush equal the word's encoding, and whether the top candidate
// is the word.
type accuracy struct {
	words, seqExact, top1 int
}

func (a *accuracy) add(sc *script, outs []opOut) error {
	scheme := stroke.DefaultScheme()
	var seq []string
	w := 0
	for i, out := range outs {
		for _, d := range out.dets {
			seq = append(seq, d.Stroke)
		}
		if sc.ops[i].kind != opFlush {
			continue
		}
		want, err := scheme.Encode(sc.words[w])
		if err != nil {
			return err
		}
		a.words++
		if sameStrokes(seq, want) {
			a.seqExact++
		}
		if len(out.words) > 0 && out.words[0].Word == sc.words[w] {
			a.top1++
		}
		seq, w = seq[:0], w+1
	}
	return nil
}

func sameStrokes(got []string, want stroke.Sequence) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i].String() {
			return false
		}
	}
	return true
}

func (a accuracy) rates() (seqExact, top1 float64) {
	if a.words == 0 {
		return 0, 0
	}
	return float64(a.seqExact) / float64(a.words), float64(a.top1) / float64(a.words)
}

func sequenceOf(dets []pipeline.Detection) stroke.Sequence {
	seq := make(stroke.Sequence, len(dets))
	for i, d := range dets {
		seq[i] = d.Stroke
	}
	return seq
}
