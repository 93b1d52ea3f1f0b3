package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// spanHeader carries the client span ID to the handler middleware.
const spanHeader = "X-Perfbench-Span"

// stack is the in-process ewserve: a sharded manager and its HTTP server
// on a loopback port, configured like ewload's self-contained mode.
type stack struct {
	mgr     *serve.ShardedManager
	svc     *tracedService // nil when untraced
	handler http.Handler
	hs      *http.Server
	base    string
	done    chan struct{}
}

// startStack builds the serving stack. With a tracer, the manager is
// wrapped in tracedService and the route table in the span middleware.
func startStack(rec *infer.Recognizer, tr *tracer) (*stack, error) {
	mgr, err := serve.NewShardedManager(serve.Config{
		Recognizer:  rec,
		MaxSessions: 256,
		Prewarm:     4,
	}, 0)
	if err != nil {
		return nil, err
	}
	s := &stack{mgr: mgr, done: make(chan struct{})}
	var svc serve.Service = mgr
	if tr != nil {
		s.svc = &tracedService{ShardedManager: mgr, tr: tr, fed: make(map[string]int)}
		svc = s.svc
	}
	s.handler = serve.NewServer(svc).Handler()
	if tr != nil {
		s.handler = traceHandler(s.handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.handler}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

func (s *stack) stop() {
	_ = s.hs.Close() // the listener error, if any, is irrelevant at teardown
	<-s.done
	s.mgr.Shutdown()
}

// setupStack builds the recognizer and the stack reps times, keeping the
// last, and returns the build times in seconds.
func setupStack(tr *tracer, reps int) (*stack, *infer.Recognizer, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		rec, err := newRecognizer()
		if err != nil {
			return nil, nil, nil, err
		}
		st, err := startStack(rec, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			return st, rec, times, nil
		}
		st.stop()
	}
}

// feedObs is one Service.Feed call seen by tracedService.
type feedObs struct {
	at       time.Time
	dur      time.Duration
	age      float64 // audio seconds the session had been fed before
	rejected bool
}

// tracedService times each public Service call from outside the program.
// It embeds the manager, so the server still finds the metrics surface
// and /metricsz keeps working.
type tracedService struct {
	*serve.ShardedManager
	tr *tracer

	mu    sync.Mutex
	fed   map[string]int // samples accepted per session
	feeds []feedObs
}

func (s *tracedService) Open() (string, error) {
	t0 := time.Now()
	id, err := s.ShardedManager.Open()
	s.tr.record(s.tr.newID(), 0, id, "serve.Open", t0, time.Now())
	return id, err
}

func (s *tracedService) Feed(id string, chunk []float64) ([]pipeline.Detection, error) {
	t0 := time.Now()
	dets, err := s.ShardedManager.Feed(id, chunk)
	t1 := time.Now()
	s.tr.record(s.tr.newID(), 0, id, "serve.Feed", t0, t1)
	s.mu.Lock()
	obs := feedObs{at: t0, dur: t1.Sub(t0), age: float64(s.fed[id]) / sampleRate, rejected: errors.Is(err, serve.ErrBackpressure)}
	if err == nil {
		s.fed[id] += len(chunk)
	}
	s.feeds = append(s.feeds, obs)
	s.mu.Unlock()
	return dets, err
}

func (s *tracedService) Flush(id string) ([]pipeline.Detection, []infer.Candidate, error) {
	t0 := time.Now()
	dets, cands, err := s.ShardedManager.Flush(id)
	s.tr.record(s.tr.newID(), 0, id, "serve.Flush", t0, time.Now())
	return dets, cands, err
}

func (s *tracedService) Close(id string) error {
	t0 := time.Now()
	err := s.ShardedManager.Close(id)
	s.tr.record(s.tr.newID(), 0, id, "serve.Close", t0, time.Now())
	return err
}

func (s *tracedService) feedLog() []feedObs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]feedObs(nil), s.feeds...)
}

// captureWriter keeps a copy of the body so the middleware can learn the
// session an open request minted.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

// traceHandler records an http.handler span per request, parented on the
// client span named in spanHeader. WebSocket upgrades pass through
// untouched: a stream is one long request, timed per frame by the client.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stream" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent on scrapes: a root span
		id := tr.newID()
		t0 := time.Now()
		session := ""
		if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/sessions/"); ok {
			session, _, _ = strings.Cut(rest, "/")
		}
		if r.URL.Path == "/v1/sessions" {
			cw := &captureWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			var open struct{ Session string }
			if json.Unmarshal(cw.body.Bytes(), &open) == nil {
				session = open.Session
			}
		} else {
			h.ServeHTTP(w, r)
		}
		tr.record(id, parent, session, "http.handler", t0, time.Now())
	})
}

// scrapeVals are the /metricsz families the benchmark reads, summed over
// shards.
type scrapeVals struct {
	at          time.Time
	bytes       int
	dur         time.Duration
	stages      map[string]float64
	queueMax    float64
	poolCreated float64
	poolReused  float64
	wsIn, wsOut float64
	pushLe      []float64 // push-latency bucket bounds (ms)
	pushCum     []float64 // cumulative counts per bound
}

// scrape renders /metricsz through the route table in-process, so the
// reader needs no connection of its own, and parses it strictly.
func scrape(h http.Handler) (scrapeVals, error) {
	v := scrapeVals{at: time.Now(), stages: make(map[string]float64)}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	v.dur = time.Since(v.at)
	v.bytes = rec.Body.Len()
	fams, err := expose.Parse(rec.Body)
	if err != nil {
		return v, err
	}
	for _, f := range fams {
		for _, s := range f.Samples {
			switch f.Name {
			case "echowrite_stage_seconds_total":
				for _, l := range s.Labels {
					if l.Name == "stage" {
						v.stages[l.Value] += s.Value
					}
				}
			case "echowrite_queue_len":
				v.queueMax = math.Max(v.queueMax, s.Value)
			case "echowrite_engine_pool_created_total":
				v.poolCreated += s.Value
			case "echowrite_engine_pool_reused_total":
				v.poolReused += s.Value
			case "echowrite_ws_frames_in_total":
				v.wsIn += s.Value
			case "echowrite_ws_frames_out_total":
				v.wsOut += s.Value
			case "echowrite_ws_push_latency_milliseconds":
				if s.Name != f.Name+"_bucket" {
					continue
				}
				for _, l := range s.Labels {
					if l.Name == "le" {
						le, err := strconv.ParseFloat(l.Value, 64)
						if err != nil {
							le = math.Inf(1)
						}
						v.pushLe = append(v.pushLe, le)
						v.pushCum = append(v.pushCum, s.Value)
					}
				}
			}
		}
	}
	return v, nil
}

// stageSeconds is the total pipeline stage time in v.
func (v scrapeVals) stageSeconds() float64 {
	sum := 0.0
	for _, s := range v.stages {
		sum += s
	}
	return sum
}

// histQuantile interpolates quantile q of the histogram of observations
// made between two scrapes (cumulative bucket counts, same bounds).
func histQuantile(le, before, after []float64, q float64) float64 {
	if len(le) == 0 || len(before) != len(after) {
		return 0
	}
	total := after[len(after)-1] - before[len(before)-1]
	if total <= 0 {
		return 0
	}
	target := q * total
	prevLe, prevCum := 0.0, 0.0
	for i := range le {
		cum := after[i] - before[i]
		if cum >= target {
			if math.IsInf(le[i], 1) {
				return prevLe
			}
			if cum == prevCum {
				return le[i]
			}
			return prevLe + (le[i]-prevLe)*(target-prevCum)/(cum-prevCum)
		}
		prevLe, prevCum = le[i], cum
	}
	return prevLe
}
