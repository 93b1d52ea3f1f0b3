package pipeline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mvce"
	"repro/internal/segment"
)

// ErrOversizedChunk is returned by Stream.Feed when a single call would
// grow the buffered residue past the stream's chunk cap. Callers should
// split the input into smaller chunks; the stream state is unchanged.
var ErrOversizedChunk = errors.New("pipeline: chunk exceeds stream residue cap")

// DefaultMaxChunk bounds how many samples one Feed call may buffer
// (≈24 s at 44.1 kHz). A serving front end exposed to untrusted clients
// should set Stream.MaxChunk far lower (one network frame).
const DefaultMaxChunk = 1 << 20

// Stream is the incremental recognizer matching the paper's prototype
// (§IV-A): audio arrives in arbitrary chunks, STFT frames are produced as
// soon as a hop completes, and detections are emitted as strokes finish —
// without waiting for the recording to end.
//
// The static-background template for spectral subtraction is estimated
// once from the first StaticFrames frames of the stream (the paper's
// "initial 5 frames"), so streams must begin with a short rest, exactly
// as the batch pipeline requires.
//
// A Stream keeps a bounded window of spectrogram columns (MaxWindow
// frames); enhancement and contour extraction re-run over the window on
// each feed, which mirrors the prototype's process-on-buffer-full loop.
type Stream struct {
	eng *Engine
	// MaxWindow bounds the retained spectrogram columns; 0 means 1024
	// frames (≈24 s at the paper's hop).
	MaxWindow int
	// AdaptiveStatic slowly refreshes the spectral-subtraction template
	// during quiet frames, so a hand that comes to rest in a new spot
	// (changing the static echo field) stops biasing later profiles. The
	// paper's prototype re-estimates per stroke; this is the streaming
	// equivalent. Off by default (the paper's fixed initial template).
	AdaptiveStatic bool
	// MaxChunk caps how many samples a single Feed call may leave
	// buffered; 0 means DefaultMaxChunk. Oversized calls fail with
	// ErrOversizedChunk instead of growing memory without bound.
	MaxChunk int

	// testFrameHook, when set, runs before each frame extraction in
	// Feed; a non-nil error aborts the hop loop. Tests use it to reach
	// Feed's error exit, which is otherwise unreachable in-process
	// (FrameColumn always sees exact-size frames), to pin that accrued
	// stage time survives an error return.
	testFrameHook func() error

	samples     []float64   // residue not yet consumed into frames
	columns     [][]float64 // raw magnitude columns in the window
	frameOffset int         // absolute index of columns[0]
	static      []float64   // spectral-subtraction template
	staticAccum [][]float64 // first frames accumulated for the template
	emittedEnd  int         // absolute frame index before which detections were emitted
	timings     StageTimings
}

// NewStream wraps an engine for incremental use. The engine must not be
// used concurrently by other callers while the stream is active.
func NewStream(eng *Engine) *Stream {
	return &Stream{eng: eng}
}

// FramesSeen returns how many STFT frames have been produced so far.
func (s *Stream) FramesSeen() int { return s.frameOffset + len(s.columns) }

// Engine returns the engine this stream wraps. The engine stays bound to
// the stream for its whole pooled lifetime; callers must not use it
// concurrently with Feed/Flush.
func (s *Stream) Engine() *Engine { return s.eng }

// Timings returns the accumulated per-stage processing time since the
// stream was created or last Reset. The streaming chain re-runs
// enhancement over its window each feed, so these measure real serving
// cost rather than the batch pipeline's one-pass cost.
func (s *Stream) Timings() StageTimings { return s.timings }

// Reset clears all per-recording state — buffered samples, spectrogram
// window, the static-background template, and emission bookkeeping — so
// the stream (and its engine's FFT machinery) can be reused for a new
// recording without reallocation. Tuning fields (MaxWindow,
// AdaptiveStatic, MaxChunk) are preserved. A reset stream behaves
// identically to a freshly constructed one.
func (s *Stream) Reset() {
	s.samples = s.samples[:0]
	s.columns = s.columns[:0]
	s.frameOffset = 0
	s.static = nil
	s.staticAccum = nil
	s.emittedEnd = 0
	s.timings = StageTimings{}
}

// maxChunk resolves the residue cap.
func (s *Stream) maxChunk() int {
	if s.MaxChunk > 0 {
		return s.MaxChunk
	}
	return DefaultMaxChunk
}

// Feed appends raw samples (at the configured sample rate) and returns
// any strokes that completed. Detections are emitted exactly once, in
// order, with Segment frame indices absolute from the stream start.
//
// A call that would buffer more than MaxChunk samples fails with an
// error wrapping ErrOversizedChunk before any state changes; the caller
// can split the chunk and retry.
//
// ew:hotpath — the streaming STFT column loop runs once per hop on the
// serving path; the hotalloc analyzer keeps allocations out of it.
func (s *Stream) Feed(chunk []float64) ([]Detection, error) {
	if total := len(s.samples) + len(chunk); total > s.maxChunk() {
		return nil, fmt.Errorf("%w: %d buffered samples (cap %d)",
			ErrOversizedChunk, total, s.maxChunk())
	}
	s.samples = append(s.samples, chunk...)
	cfg := s.eng.cfg.STFT
	t0 := time.Now()
	var err error
	for len(s.samples) >= cfg.FFTSize {
		if s.testFrameHook != nil {
			if err = s.testFrameHook(); err != nil {
				break
			}
		}
		var col []float64
		if col, err = s.eng.stft.FrameColumn(s.samples[:cfg.FFTSize]); err != nil {
			err = fmt.Errorf("pipeline: stream frame: %w", err)
			break
		}
		s.samples = s.samples[cfg.HopSize:]
		s.pushColumn(col)
	}
	// Accrue the hop loop's cost on every exit: an error mid-extraction
	// has already spent the time, and the serving layer folds these
	// deltas into its stage accounting whether or not the feed failed.
	s.timings.STFT += time.Since(t0)
	if err != nil {
		return nil, err
	}
	return s.process(false)
}

// Flush processes whatever remains (zero-padding the final partial frame)
// and emits any still-open detections. The stream remains usable.
func (s *Stream) Flush() ([]Detection, error) {
	cfg := s.eng.cfg.STFT
	if len(s.samples) > cfg.HopSize {
		frame := make([]float64, cfg.FFTSize)
		copy(frame, s.samples)
		col, err := s.eng.stft.FrameColumn(frame)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stream flush: %w", err)
		}
		s.samples = s.samples[:0]
		s.pushColumn(col)
	}
	return s.process(true)
}

func (s *Stream) pushColumn(col []float64) {
	// Accumulate the static template from the first frames.
	if s.static == nil {
		s.staticAccum = append(s.staticAccum, col)
		if len(s.staticAccum) == s.eng.cfg.StaticFrames {
			s.static = make([]float64, len(col))
			for _, c := range s.staticAccum {
				for b, v := range c {
					s.static[b] += v
				}
			}
			for b := range s.static {
				s.static[b] /= float64(len(s.staticAccum))
			}
			s.staticAccum = nil
		}
	}
	s.columns = append(s.columns, col)
	maxW := s.MaxWindow
	if maxW == 0 {
		maxW = 1024
	}
	// Compact the window, but never drop frames that might belong to a
	// stroke not yet emitted.
	if len(s.columns) > maxW {
		drop := len(s.columns) - maxW
		if limit := s.emittedEnd - s.frameOffset; drop > limit {
			drop = limit
		}
		if drop > 0 {
			s.columns = s.columns[drop:]
			s.frameOffset += drop
		}
	}
}

// emitSafety is how many frames behind the stream head a segment must end
// before it is considered final (the quiet run plus smear).
const emitSafety = 14

// process runs the enhancement chain over the current window and emits
// newly finalized detections. When final is true, open segments are
// emitted regardless of the safety margin.
func (s *Stream) process(final bool) ([]Detection, error) {
	if s.static == nil || len(s.columns) < s.eng.cfg.StaticFrames+4 {
		return nil, nil
	}
	// Enhancement over the window with the stream's static template.
	t0 := time.Now()
	bin, bursts, err := s.eng.enhanceColumns(s.columns, s.static)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stream enhance: %w", err)
	}
	s.timings.Enhancement += time.Since(t0)
	t0 = time.Now()
	profile, err := mvce.Extract(bin, s.eng.cfg.mvceConfig())
	if err != nil {
		return nil, fmt.Errorf("pipeline: stream contour: %w", err)
	}
	s.timings.Profile += time.Since(t0)
	t0 = time.Now()
	segs, err := segment.Detect(profile, s.eng.cfg.Segment)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stream segment: %w", err)
	}
	s.timings.Segmentation += time.Since(t0)
	if s.AdaptiveStatic {
		s.adaptStatic(bin)
	}
	var out []Detection
	head := len(profile)
	for _, sg := range segs {
		absStart := sg.Start + s.frameOffset
		absEnd := sg.End + s.frameOffset
		if absStart < s.emittedEnd {
			continue // already emitted
		}
		if !final && sg.End > head-emitSafety {
			break // may still be growing
		}
		slice, err := segment.Slice(profile, sg)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		det, err := s.eng.ClassifyProfile(slice)
		s.timings.DTW += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stream classify: %w", err)
		}
		det.Segment = segment.Segment{Start: absStart, End: absEnd}
		det.Contaminated = overlapsBurst(sg, bursts)
		// ew:allow hotprop: one append per classified stroke per flush —
		// detections are user-scale events, not per-column work.
		out = append(out, det)
		s.emittedEnd = absEnd + 1
	}
	return out, nil
}

// staticAdaptRate is the per-quiet-frame EMA coefficient for adaptive
// template refresh; ~60 quiet frames (1.4 s) absorb a static change.
const staticAdaptRate = 0.03

// adaptStatic folds the most recent quiet (no-foreground) frames of the
// window into the subtraction template with a slow exponential moving
// average. Only trailing quiet frames are used so a stroke in progress
// never leaks into the template.
func (s *Stream) adaptStatic(bin [][]uint8) {
	for i := len(bin) - 1; i >= 0 && i >= len(bin)-4; i-- {
		active := 0
		for _, v := range bin[i] {
			if v == 1 {
				active++
			}
		}
		if active > 0 {
			return
		}
		raw := s.columns[i]
		for b := range s.static {
			s.static[b] = (1-staticAdaptRate)*s.static[b] + staticAdaptRate*raw[b]
		}
	}
}
