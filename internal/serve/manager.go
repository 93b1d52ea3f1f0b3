package serve

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
	ewruntime "repro/internal/runtime"
	"repro/internal/stroke"
)

// Typed service errors. The HTTP front end maps these onto status codes;
// embedded callers branch with errors.Is.
var (
	// ErrBackpressure means the ingest queue is full: the service sheds
	// the chunk instead of buffering without bound. Clients retry after
	// a short delay.
	ErrBackpressure = errors.New("serve: ingest queue full")
	// ErrSessionLimit means the bounded session table is full even after
	// idle eviction.
	ErrSessionLimit = errors.New("serve: session limit reached")
	// ErrUnknownSession means the session ID was never opened, was
	// closed, or was evicted for idleness.
	ErrUnknownSession = errors.New("serve: unknown session")
	// ErrClosed means the service has been shut down.
	ErrClosed = errors.New("serve: manager closed")
)

// Config parameterizes a ShardedManager. The zero value is usable:
// every field has a serving-appropriate default.
type Config struct {
	// Engines builds recognizer engines for the pool (nil: default
	// pipeline configuration).
	Engines EngineFactory
	// Recognizer, when set, produces word candidates from each session's
	// accumulated stroke sequence on Flush. It is shared across sessions
	// and must therefore be used read-only (infer.Recognizer is).
	Recognizer *infer.Recognizer
	// MaxSessions bounds the session table (default 64).
	MaxSessions int
	// IdleTimeout is how long a session may sit without a Feed before
	// EvictIdle may reclaim it (default 2 minutes; <0 disables).
	IdleTimeout time.Duration
	// Workers is the processing goroutine count (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the shared ingest queue; a full queue yields
	// ErrBackpressure (default 4×Workers).
	QueueDepth int
	// Prewarm engines built at startup (default min(2, MaxSessions)).
	Prewarm int
	// MaxChunk caps buffered samples per Feed call per session
	// (default pipeline.DefaultMaxChunk).
	MaxChunk int
	// MaxWindow bounds each session's retained spectrogram columns
	// (default 0: the stream's own 1024-frame default).
	MaxWindow int
	// Clock supplies time for idle accounting (default time.Now); tests
	// inject a fake.
	Clock func() time.Time
	// JobStartHook, when set, runs at the top of every worker job with
	// the job's session ID. It exists for fault injection: the stress
	// suite uses it to stall chosen sessions, saturate queues
	// deterministically, and shake goroutine interleavings. Production
	// configs leave it nil.
	JobStartHook func(sessionID string)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = stdruntime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.Prewarm <= 0 {
		c.Prewarm = 2
	}
	if c.Prewarm > c.MaxSessions {
		c.Prewarm = c.MaxSessions
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// feedLatencyBuckets are the upper bounds (milliseconds) of the
// feed-latency histogram behind /metricsz and the /statsz quantiles:
// octaves from 0.25 ms to 512 ms, so both a warm sub-millisecond feed
// and a cold-engine or contended-shard stall land in informative buckets.
var feedLatencyBuckets = mustExpBuckets(0.25, 2, 12)

func mustExpBuckets(start, factor float64, n int) []float64 {
	b, err := expose.ExpBuckets(start, factor, n)
	if err != nil {
		panic(err)
	}
	return b
}

// shard is one partition of a ShardedManager: it owns per-session
// stream state keyed by session ID and pushes every chunk through a
// bounded worker pool. Feed and Flush are synchronous: they enqueue a
// job and wait for its result, so a caller that feeds one session
// sequentially observes detections in order. Distinct sessions are
// processed concurrently up to the shard's Workers.
type shard struct {
	cfg  Config
	pool *EnginePool
	jobs chan *job
	quit chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session // guarded by mu
	closed   bool                // guarded by mu

	chunks     atomic.Uint64
	detections atomic.Uint64
	rejected   atomic.Uint64
	evictions  atomic.Uint64
	feedErrors atomic.Uint64
	stages     ewruntime.SharedBreakdown

	// latHist is the shard's only feed-latency store: /metricsz renders
	// it and /statsz estimates its quantiles from it. Internally atomic,
	// so recording a feed takes no lock.
	latHist *expose.Histogram
}

// session serializes all pipeline work for one client. The mutex is held
// for the duration of each job, so a session's stream never runs on two
// workers at once.
type session struct {
	id string

	mu     sync.Mutex
	stream *pipeline.Stream // guarded by mu
	seq    stroke.Sequence  // guarded by mu
	// pendingStages accumulates stream stage-time deltas since the last
	// emitted stroke, so the shared breakdown attributes quiet-feed cost
	// to the strokes it ultimately produced.
	pendingStages pipeline.StageTimings // guarded by mu
	lastStages    pipeline.StageTimings // guarded by mu
	closed        bool                  // guarded by mu

	lastActive atomic.Int64 // unix nanoseconds
}

type job struct {
	sess  *session
	chunk []float64
	flush bool
	reply chan jobResult
}

type jobResult struct {
	dets []pipeline.Detection
	err  error
}

// newShard pre-warms the engine pool and starts the worker goroutines
// for an already-resolved per-shard cfg. Call Shutdown to release them.
func newShard(cfg Config) (*shard, error) {
	pool, err := NewEnginePool(cfg.Engines, cfg.Prewarm)
	if err != nil {
		return nil, err
	}
	hist, err := expose.NewHistogram(feedLatencyBuckets)
	if err != nil {
		return nil, err
	}
	m := &shard{
		cfg:      cfg,
		pool:     pool,
		jobs:     make(chan *job, cfg.QueueDepth),
		quit:     make(chan struct{}),
		sessions: make(map[string]*session),
		latHist:  hist,
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

// open registers a session under the ID the ShardedManager minted for
// this shard. When the table is full it first attempts idle eviction;
// if the table is still full the call fails with ErrSessionLimit.
func (m *shard) open(id string) error {
	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return ErrClosed
		}
		if len(m.sessions) < m.cfg.MaxSessions {
			break // holds m.mu
		}
		m.mu.Unlock()
		if attempt > 0 || m.EvictIdle() == 0 {
			return ErrSessionLimit
		}
	}
	sess := &session{id: id}
	sess.lastActive.Store(m.cfg.Clock().UnixNano())
	m.sessions[id] = sess
	m.mu.Unlock()

	// Engine checkout happens outside m.mu: building a cold engine is
	// the slow path and must not block unrelated sessions.
	st, err := m.pool.Get()
	if err != nil {
		m.mu.Lock()
		delete(m.sessions, id)
		m.mu.Unlock()
		return err
	}
	st.MaxChunk = m.cfg.MaxChunk
	st.MaxWindow = m.cfg.MaxWindow
	sess.mu.Lock()
	sess.stream = st
	sess.mu.Unlock()
	return nil
}

// Feed pushes one audio chunk into a session and returns the strokes
// that completed. A full ingest queue yields ErrBackpressure without
// touching session state.
func (m *shard) Feed(id string, chunk []float64) ([]pipeline.Detection, error) {
	sess, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return m.submit(sess, chunk, false)
}

// Flush drains a session's partial frame, returning the final
// detections plus word candidates for the accumulated stroke sequence
// (when a Recognizer is configured). The sequence resets afterwards so
// the next word starts clean; the session itself stays open.
func (m *shard) Flush(id string) ([]pipeline.Detection, []infer.Candidate, error) {
	sess, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	dets, err := m.submit(sess, nil, true)
	if err != nil {
		return nil, nil, err
	}
	sess.mu.Lock()
	seq := sess.seq
	sess.seq = nil
	sess.mu.Unlock()
	if m.cfg.Recognizer == nil || len(seq) == 0 {
		return dets, nil, nil
	}
	cands, err := m.cfg.Recognizer.Recognize(seq)
	if err != nil {
		return dets, nil, fmt.Errorf("serve: word candidates: %w", err)
	}
	return dets, cands, nil
}

// Close removes a session and returns its engine to the pool.
func (m *shard) Close(id string) error {
	m.mu.Lock()
	sess, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if !ok {
		return ErrUnknownSession
	}
	m.release(sess)
	return nil
}

// Touch refreshes a session's idle clock without submitting work. The
// streaming front end calls it so a live connection counts as session
// activity for EvictIdle even when no audio is flowing.
func (m *shard) Touch(id string) error {
	sess, err := m.lookup(id)
	if err != nil {
		return err
	}
	sess.lastActive.Store(m.cfg.Clock().UnixNano())
	return nil
}

// EvictIdle reclaims sessions idle past IdleTimeout, returning how many
// were evicted. The HTTP server calls this on a timer; Open calls it
// when the table is full.
func (m *shard) EvictIdle() int {
	if m.cfg.IdleTimeout <= 0 {
		return 0
	}
	cutoff := m.cfg.Clock().Add(-m.cfg.IdleTimeout).UnixNano()
	m.mu.Lock()
	var idle []*session
	for id, sess := range m.sessions {
		if sess.lastActive.Load() < cutoff {
			idle = append(idle, sess)
			delete(m.sessions, id)
		}
	}
	m.mu.Unlock()
	for _, sess := range idle {
		m.release(sess)
	}
	if len(idle) > 0 {
		m.evictions.Add(uint64(len(idle)))
	}
	return len(idle)
}

// Shutdown closes every session, stops the workers and waits for them.
// Queued jobs are abandoned; their callers receive ErrClosed.
func (m *shard) Shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var open []*session
	for id, sess := range m.sessions {
		open = append(open, sess)
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	for _, sess := range open {
		m.release(sess)
	}
	close(m.quit)
	m.wg.Wait()
}

func (m *shard) lookup(id string) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	sess, ok := m.sessions[id]
	if !ok {
		return nil, ErrUnknownSession
	}
	return sess, nil
}

// release marks a session closed and checks its stream back in. It must
// be called after the session left the table, so no new jobs target it;
// an in-flight job finishes first because both sides take sess.mu.
func (m *shard) release(sess *session) {
	sess.mu.Lock()
	if !sess.closed {
		sess.closed = true
		if sess.stream != nil {
			m.pool.Put(sess.stream)
			sess.stream = nil
		}
	}
	sess.mu.Unlock()
}

// submit enqueues one job with admission control and waits for it.
func (m *shard) submit(sess *session, chunk []float64, flush bool) ([]pipeline.Detection, error) {
	j := &job{sess: sess, chunk: chunk, flush: flush, reply: make(chan jobResult, 1)}
	select {
	case m.jobs <- j:
	default:
		m.rejected.Add(1)
		return nil, ErrBackpressure
	}
	select {
	case r := <-j.reply:
		return r.dets, r.err
	case <-m.quit:
		return nil, ErrClosed
	}
}

func (m *shard) worker() {
	defer m.wg.Done()
	for {
		select {
		case j := <-m.jobs:
			m.runJob(j)
		case <-m.quit:
			return
		}
	}
}

func (m *shard) runJob(j *job) {
	if m.cfg.JobStartHook != nil {
		m.cfg.JobStartHook(j.sess.id)
	}
	sess := j.sess
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed || sess.stream == nil {
		// ew:allow lockhold: reply has capacity 1 and exactly one writer
		// per job, so this send never blocks.
		j.reply <- jobResult{err: ErrUnknownSession}
		return
	}
	start := time.Now()
	var (
		dets []pipeline.Detection
		err  error
	)
	if j.flush {
		// ew:allow lockhold: holding sess.mu across the DSP pass is the
		// design — the per-session lock serializes the stream without
		// stalling other sessions, which lock only their own mutexes.
		dets, err = sess.stream.Flush()
	} else {
		// ew:allow lockhold: same per-session serialization as Flush.
		dets, err = sess.stream.Feed(j.chunk)
	}
	// Latency and stage deltas are recorded on the error branch too: a
	// failed feed has already spent real pipeline time (the stream
	// accrues its hop-loop cost on every exit), and hiding it made error
	// storms look free on /metricsz while their cost bled into the next
	// successful feed's attribution. Successful-chunk and detection
	// counters stay success-only; errors land in feedErrors
	// (echowrite_feed_errors_total).
	m.recordLatency(time.Since(start))
	m.accountStages(sess, len(dets))
	if err == nil {
		m.chunks.Add(1)
		for _, d := range dets {
			sess.seq = append(sess.seq, d.Stroke)
		}
		if len(dets) > 0 {
			m.detections.Add(uint64(len(dets)))
		}
	} else {
		m.feedErrors.Add(1)
	}
	sess.lastActive.Store(m.cfg.Clock().UnixNano())
	// ew:allow lockhold: reply has capacity 1 and exactly one writer per
	// job, so this send never blocks.
	j.reply <- jobResult{dets: dets, err: err}
}

// accountStages folds the stream's stage-time delta since the previous
// job into the session's pending bucket, and flushes the bucket into the
// shared breakdown whenever strokes completed — so per-stroke stage
// means include the quiet feeds that led up to each stroke.
//
// ew:holds sess.mu — only runJob calls this, with the session locked.
func (m *shard) accountStages(sess *session, strokes int) {
	t := sess.stream.Timings()
	last := sess.lastStages
	sess.lastStages = t
	sess.pendingStages.STFT += t.STFT - last.STFT
	sess.pendingStages.Enhancement += t.Enhancement - last.Enhancement
	sess.pendingStages.Profile += t.Profile - last.Profile
	sess.pendingStages.Segmentation += t.Segmentation - last.Segmentation
	sess.pendingStages.DTW += t.DTW - last.DTW
	if strokes > 0 {
		m.stages.Add(sess.pendingStages, strokes)
		sess.pendingStages = pipeline.StageTimings{}
	}
}

func (m *shard) recordLatency(d time.Duration) {
	m.latHist.Observe(float64(d) / float64(time.Millisecond))
}

// StageMillis is the per-stroke stage cost view exposed by Snapshot,
// in milliseconds.
type StageMillis struct {
	STFT         float64 `json:"stft"`
	Enhancement  float64 `json:"enhancement"`
	Profile      float64 `json:"profile"`
	Segmentation float64 `json:"segmentation"`
	DTW          float64 `json:"dtw"`
	Total        float64 `json:"total"`
	Strokes      int     `json:"strokes"`
}

// ShardStats is one shard's contribution to an aggregated snapshot:
// enough to spot a hot shard (deep queue, heavy backpressure) from
// /statsz without scraping each shard separately.
type ShardStats struct {
	ActiveSessions int    `json:"active_sessions"`
	QueueLen       int    `json:"queue_len"`
	QueueCap       int    `json:"queue_cap"`
	Chunks         uint64 `json:"chunks_processed"`
	Detections     uint64 `json:"detections"`
	Backpressure   uint64 `json:"backpressure_rejects"`
	FeedErrors     uint64 `json:"feed_errors"`
	Evictions      uint64 `json:"idle_evictions"`
}

// Stats is the /statsz snapshot: service health, pool occupancy,
// throughput counters, feed-latency quantiles and per-stroke stage cost
// aggregated across all sessions. The top-level fields aggregate every
// shard and Shards carries the per-shard view. FeedLatencyMs is
// estimated from the same per-shard histograms /metricsz exposes.
type Stats struct {
	ActiveSessions int                    `json:"active_sessions"`
	MaxSessions    int                    `json:"max_sessions"`
	Workers        int                    `json:"workers"`
	QueueLen       int                    `json:"queue_len"`
	QueueCap       int                    `json:"queue_cap"`
	Pool           PoolStats              `json:"engine_pool"`
	Chunks         uint64                 `json:"chunks_processed"`
	Detections     uint64                 `json:"detections"`
	Backpressure   uint64                 `json:"backpressure_rejects"`
	FeedErrors     uint64                 `json:"feed_errors"`
	Evictions      uint64                 `json:"idle_evictions"`
	FeedLatencyMs  metrics.LatencySummary `json:"feed_latency_ms"`
	PerStroke      StageMillis            `json:"per_stroke_ms"`
	Shards         []ShardStats           `json:"shards,omitempty"`
}

// shardView reads this shard's counters — cheap (atomic loads plus a
// brief table lock), so the /metricsz collectors call it on every scrape.
func (m *shard) shardView() ShardStats {
	m.mu.Lock()
	active := len(m.sessions)
	m.mu.Unlock()
	return ShardStats{
		ActiveSessions: active,
		QueueLen:       len(m.jobs),
		QueueCap:       cap(m.jobs),
		Chunks:         m.chunks.Load(),
		Detections:     m.detections.Load(),
		Backpressure:   m.rejected.Load(),
		FeedErrors:     m.feedErrors.Load(),
		Evictions:      m.evictions.Load(),
	}
}

// stageMillis converts an aggregated stage breakdown into the per-stroke
// millisecond view /statsz exposes (zero value when no strokes yet).
func stageMillis(b ewruntime.StageBreakdown) StageMillis {
	per, err := b.PerStroke()
	if err != nil {
		return StageMillis{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return StageMillis{
		STFT:         ms(per.STFT),
		Enhancement:  ms(per.Enhancement),
		Profile:      ms(per.Profile),
		Segmentation: ms(per.Segmentation),
		DTW:          ms(per.DTW),
		Total:        ms(per.Total()),
		Strokes:      b.Strokes,
	}
}
