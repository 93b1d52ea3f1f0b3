package pipeline

import (
	"errors"
	"fmt"
	"time"

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
	static      []float64   // spectral-subtraction template, set by the first analyze
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
// recording without reallocation. Tuning fields (MaxWindow, MaxChunk)
// are preserved. A reset stream behaves identically to a freshly
// constructed one.
func (s *Stream) Reset() {
	s.samples = s.samples[:0]
	s.columns = s.columns[:0]
	s.frameOffset = 0
	s.static = nil
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

// process runs the engine's analyze pass over the current window and
// emits newly finalized detections. When final is true, open segments are
// emitted regardless of the safety margin.
func (s *Stream) process(final bool) ([]Detection, error) {
	if len(s.columns) < s.eng.cfg.StaticFrames+4 {
		return nil, nil
	}
	if s.static == nil {
		// Compaction never drops a column before the first emission, so
		// the window still starts at frame 0 here.
		s.static = staticTemplate(s.columns[:s.eng.cfg.StaticFrames])
	}
	a, err := s.eng.analyze(s.columns, s.static, &s.timings)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stream: %w", err)
	}
	var out []Detection
	head := len(a.profile)
	for _, sg := range a.segs {
		absStart := sg.Start + s.frameOffset
		absEnd := sg.End + s.frameOffset
		if absStart < s.emittedEnd {
			continue // already emitted
		}
		if !final && sg.End > head-emitSafety {
			break // may still be growing
		}
		det, err := s.eng.classifySegment(a.profile, a.bursts, sg, &s.timings)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stream: %w", err)
		}
		det.Segment = segment.Segment{Start: absStart, End: absEnd}
		// ew:allow hotprop: one append per classified stroke per flush —
		// detections are user-scale events, not per-column work.
		out = append(out, det)
		s.emittedEnd = absEnd + 1
	}
	return out, nil
}
