package pipeline

import (
	"errors"
	"testing"
	"time"

	"repro/internal/acoustic"
	"repro/internal/audio"
	"repro/internal/geom"
	"repro/internal/stroke"
)

// synthesizeSequence renders a multi-stroke writing in a quiet scene with
// rests and gentle repositions between strokes. testing.TB so the fuzz
// harness can seed its corpus with the same audio.
func synthesizeSequence(t testing.TB, seq stroke.Sequence) *audio.Signal {
	t.Helper()
	return synthesizeSequenceIn(t, seq, acoustic.MeetingRoom)
}

// synthesizeSequenceIn is synthesizeSequence in the given environment.
func synthesizeSequenceIn(t testing.TB, seq stroke.Sequence, env acoustic.EnvironmentKind) *audio.Signal {
	t.Helper()
	var parts []geom.Trajectory
	prev, err := stroke.StartPoint(seq[0], stroke.ShapeParams{})
	if err != nil {
		t.Fatal(err)
	}
	parts = append(parts, &geom.StaticTrajectory{Pos: prev, Dur: 0.4})
	for i, st := range seq {
		start, err := stroke.StartPoint(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			parts = append(parts, &geom.StaticTrajectory{Pos: prev, Dur: 0.35})
			rep, err := geom.NewPolyTrajectory([]geom.Waypoint{
				{T: 0, Pos: prev}, {T: 1.0, Pos: start},
			})
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, rep)
		}
		tr, err := stroke.Shape(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, tr)
		prev, err = stroke.EndPoint(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
	}
	parts = append(parts, &geom.StaticTrajectory{Pos: prev, Dur: 0.5})
	finger, err := geom.NewCompositeTrajectory(parts...)
	if err != nil {
		t.Fatal(err)
	}
	sc := &acoustic.Scene{
		Device:     acoustic.Mate9(),
		Env:        acoustic.StandardEnvironment(env),
		Reflectors: acoustic.HandReflectors(finger),
		Duration:   finger.Duration(),
		Seed:       9,
	}
	sig, err := sc.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestStreamMatchesBatch pins that the stream and the batch pipeline run
// the same chain, for every contour extractor Config.Contour selects. A
// second writer puts Doppler energy on both sides of the carrier, where
// the MVCE and max-bin contours disagree.
func TestStreamMatchesBatch(t *testing.T) {
	seq := stroke.Sequence{stroke.S2, stroke.S3, stroke.S1}
	sig := synthesizeSequenceIn(t, seq, acoustic.SecondWriter)
	for _, c := range []struct {
		name    string
		contour ContourMethod
	}{
		{"mvce", ContourMVCE},
		{"maxbin", ContourMaxBin},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Contour = c.contour
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Batch reference.
			batch, err := eng.Recognize(sig)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch.Detections) == 0 {
				t.Fatal("batch found no strokes; test premise broken")
			}

			// Stream the same audio in awkward chunk sizes.
			stream := NewStream(eng)
			var got []Detection
			for start := 0; start < len(sig.Samples); start += 3001 {
				end := min(start+3001, len(sig.Samples))
				dets, err := stream.Feed(sig.Samples[start:end])
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, dets...)
			}
			tail, err := stream.Flush()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, tail...)

			if len(got) != len(batch.Detections) {
				t.Fatalf("stream emitted %d detections, batch %d", len(got), len(batch.Detections))
			}
			for i, d := range got {
				want := batch.Detections[i]
				if d.Stroke != want.Stroke {
					t.Errorf("detection %d: stream %v, batch %v", i, d.Stroke, want.Stroke)
				}
				// Absolute frame indices should agree within the smear margin.
				if diff := d.Segment.Start - want.Segment.Start; diff < -4 || diff > 4 {
					t.Errorf("detection %d start %d vs batch %d", i, d.Segment.Start, want.Segment.Start)
				}
			}

			// Fed in one chunk, the stream's first analyze sees exactly the
			// batch spectrogram, so what it emits must equal the batch
			// detections bit for bit — contour included.
			stream.Reset()
			whole, err := stream.Feed(sig.Samples)
			if err != nil {
				t.Fatal(err)
			}
			if len(whole) == 0 {
				t.Fatal("one-chunk feed emitted nothing; test premise broken")
			}
			for i, d := range whole {
				if d != batch.Detections[i] {
					t.Errorf("one-chunk detection %d = %+v, batch %+v", i, d, batch.Detections[i])
				}
			}
		})
	}
}

func TestStreamEmitsIncrementally(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := stroke.Sequence{stroke.S2, stroke.S3}
	sig := synthesizeSequence(t, seq)
	stream := NewStream(eng)

	// Feed only the first ~60 % of the audio: the first stroke must
	// already be emitted before the recording ends.
	cut := len(sig.Samples) * 6 / 10
	dets, err := stream.Feed(sig.Samples[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("no detection emitted mid-stream")
	}
	if dets[0].Stroke != stroke.S2 {
		t.Errorf("first detection %v, want S2", dets[0].Stroke)
	}
	// Feeding the rest completes the second stroke; nothing is emitted
	// twice.
	rest, err := stream.Feed(sig.Samples[cut:])
	if err != nil {
		t.Fatal(err)
	}
	tail, err := stream.Flush()
	if err != nil {
		t.Fatal(err)
	}
	total := append(append([]Detection(nil), dets...), rest...)
	total = append(total, tail...)
	if len(total) != 2 {
		t.Fatalf("emitted %d detections overall, want 2 (%v)", len(total), total)
	}
	if total[1].Stroke != stroke.S3 {
		t.Errorf("second detection %v, want S3", total[1].Stroke)
	}
}

func TestStreamWindowCompaction(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(eng)
	stream.MaxWindow = 64
	sig := synthesizeSequence(t, stroke.Sequence{stroke.S2, stroke.S1, stroke.S3})
	var got []Detection
	for start := 0; start < len(sig.Samples); start += 8192 {
		end := start + 8192
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		dets, err := stream.Feed(sig.Samples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dets...)
	}
	tail, err := stream.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, tail...)
	if len(got) != 3 {
		t.Fatalf("compacted stream emitted %d detections, want 3", len(got))
	}
	want := stroke.Sequence{stroke.S2, stroke.S1, stroke.S3}
	for i, d := range got {
		if d.Stroke != want[i] {
			t.Errorf("detection %d = %v, want %v", i, d.Stroke, want[i])
		}
	}
	if stream.FramesSeen() < 200 {
		t.Errorf("FramesSeen = %d unexpectedly small", stream.FramesSeen())
	}
}

func TestStreamSilenceEmitsNothing(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := &acoustic.Scene{
		Device:   acoustic.Mate9(),
		Env:      acoustic.StandardEnvironment(acoustic.MeetingRoom),
		Duration: 2.0,
		Seed:     3,
	}
	sig, err := sc.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(eng)
	dets, err := stream.Feed(sig.Samples)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := stream.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(dets)+len(tail) != 0 {
		t.Errorf("silence produced %d detections", len(dets)+len(tail))
	}
}

func TestStreamResetMatchesFresh(t *testing.T) {
	// A pooled stream is Reset between recordings; after Reset it must be
	// indistinguishable from a freshly constructed stream on the canonical
	// six-stroke alphabet.
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := stroke.Sequence{stroke.S1, stroke.S2, stroke.S3, stroke.S4, stroke.S5, stroke.S6}
	sig := synthesizeSequence(t, seq)

	run := func(stream *Stream) []Detection {
		var got []Detection
		for start := 0; start < len(sig.Samples); start += 4096 {
			end := min(start+4096, len(sig.Samples))
			dets, err := stream.Feed(sig.Samples[start:end])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, dets...)
		}
		tail, err := stream.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return append(got, tail...)
	}

	fresh := run(NewStream(eng))

	// Dirty a stream with part of the same audio, then Reset and rerun.
	reused := NewStream(eng)
	if _, err := reused.Feed(sig.Samples[:len(sig.Samples)/3]); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	if reused.FramesSeen() != 0 {
		t.Fatalf("FramesSeen = %d after Reset, want 0", reused.FramesSeen())
	}
	again := run(reused)

	if len(fresh) != len(again) {
		t.Fatalf("fresh stream emitted %d detections, reset stream %d", len(fresh), len(again))
	}
	for i := range fresh {
		if fresh[i].Stroke != again[i].Stroke {
			t.Errorf("detection %d: fresh %v, reset %v", i, fresh[i].Stroke, again[i].Stroke)
		}
		if fresh[i].Segment != again[i].Segment {
			t.Errorf("detection %d: fresh segment %+v, reset segment %+v",
				i, fresh[i].Segment, again[i].Segment)
		}
	}
}

func TestStreamFeedOversizedChunk(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(eng)
	stream.MaxChunk = 10000

	// Oversized in one call: typed error, no state change.
	if _, err := stream.Feed(make([]float64, 10001)); !errors.Is(err, ErrOversizedChunk) {
		t.Fatalf("Feed(10001) error = %v, want ErrOversizedChunk", err)
	}
	if stream.FramesSeen() != 0 {
		t.Errorf("rejected feed still produced %d frames", stream.FramesSeen())
	}

	// The cap applies to buffered residue, not just the chunk: two calls
	// that together exceed it must also fail.
	if _, err := stream.Feed(make([]float64, 6000)); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Feed(make([]float64, 9000)); !errors.Is(err, ErrOversizedChunk) {
		t.Fatalf("cumulative overflow error = %v, want ErrOversizedChunk", err)
	}

	// Within the cap everything keeps working.
	if _, err := stream.Feed(make([]float64, 1000)); err != nil {
		t.Fatalf("in-cap feed failed: %v", err)
	}
}

func TestStreamDefaultChunkCap(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(eng)
	if _, err := stream.Feed(make([]float64, DefaultMaxChunk+1)); !errors.Is(err, ErrOversizedChunk) {
		t.Fatalf("default cap error = %v, want ErrOversizedChunk", err)
	}
}

// TestStreamFeedTimingAccruedOnError pins the Feed accounting fix: when
// the hop loop exits on an error after consuming samples, the time
// already spent extracting frames must still land in Timings().STFT —
// previously the early returns skipped the accrual and error feeds
// looked free to the serving layer's stage accounting.
func TestStreamFeedTimingAccruedOnError(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(eng)
	sentinel := errors.New("injected frame failure")
	calls := 0
	s.testFrameHook = func() error {
		calls++
		if calls > 2 {
			// Make the spent window unambiguous on coarse clocks.
			time.Sleep(2 * time.Millisecond)
			return sentinel
		}
		return nil
	}
	cfg := eng.cfg.STFT
	chunk := make([]float64, cfg.FFTSize+3*cfg.HopSize)
	if _, err := s.Feed(chunk); !errors.Is(err, sentinel) {
		t.Fatalf("Feed error = %v, want injected failure", err)
	}
	if calls != 3 {
		t.Fatalf("hook ran %d times, want 3 (two frames extracted, third aborted)", calls)
	}
	if got := s.Timings().STFT; got < 2*time.Millisecond {
		t.Fatalf("STFT timing after failed feed = %v, want the spent time accrued", got)
	}
}

// TestStreamCompactionClampMidStroke is the boundary regression for the
// window-compaction clamp: when MaxWindow is exactly reached while a
// stroke is still unemitted, the clamp must hold every frame of that
// stroke in the window (letting it exceed MaxWindow) rather than drop
// them. A clamped stream must emit detections identical to an unbounded
// one.
func TestStreamCompactionClampMidStroke(t *testing.T) {
	engRef, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	engClamped, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sig := synthesizeSequence(t, stroke.Sequence{stroke.S3, stroke.S2})
	ref, clamped := NewStream(engRef), NewStream(engClamped)
	// Small enough that the cap is hit during the first stroke, before
	// anything has been emitted (first emission waits out the stroke
	// plus the safety margin).
	clamped.MaxWindow = 40
	var refDets, clampedDets []Detection
	overfull := 0
	for start := 0; start < len(sig.Samples); start += 2048 {
		end := start + 2048
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		d1, err := ref.Feed(sig.Samples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		refDets = append(refDets, d1...)
		d2, err := clamped.Feed(sig.Samples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		clampedDets = append(clampedDets, d2...)
		if len(clamped.columns) > clamped.MaxWindow {
			overfull++
		}
	}
	d1, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	refDets = append(refDets, d1...)
	d2, err := clamped.Flush()
	if err != nil {
		t.Fatal(err)
	}
	clampedDets = append(clampedDets, d2...)
	if overfull == 0 {
		t.Fatal("clamp never engaged: window stayed within MaxWindow, boundary untested")
	}
	if len(refDets) == 0 {
		t.Fatal("reference stream emitted nothing; scenario is degenerate")
	}
	if len(refDets) != len(clampedDets) {
		t.Fatalf("clamped stream emitted %d detections, reference %d", len(clampedDets), len(refDets))
	}
	for i := range refDets {
		if refDets[i].Stroke != clampedDets[i].Stroke || refDets[i].Segment != clampedDets[i].Segment {
			t.Fatalf("detection %d differs under clamp: %+v vs %+v", i, clampedDets[i], refDets[i])
		}
	}
}
