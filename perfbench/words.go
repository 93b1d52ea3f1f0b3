package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/infer"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// The words-http-paced workload: an open loop of single-word sessions,
// each arriving on a seeded schedule and POSTing its 50 ms chunks at real
// time. The schedule has wordsSlots lanes of back-to-back sessions with
// seeded gaps, so the offered audio rate stays near constant whatever
// words the seed draws. Four lanes keep the seed code's backlog flat at
// under half a core: at six or eight lanes the feed tail's run-to-run
// spread on a two-core machine exceeded the benchmark's bound, because
// the heaviest feeds, at the ends of sessions, then run concurrently.
const (
	wordsSlots      = 4
	wordsWarm       = 8 * time.Second        // schedule run before the window opens
	scrapeInterval  = 500 * time.Millisecond // /metricsz reader period
	backpressureTry = 100                    // 429 retries per chunk, as ewload
)

// wordSession is one scheduled session and what the client saw of it.
type wordSession struct {
	sc      *script
	arrival time.Duration // from the schedule start
	id      string
	next    int // -1 open, 0..len(ops)-1 script op, len(ops) close
	outs    []opOut
	due     []time.Time // per op sent
	ack     []time.Time
}

func (s *wordSession) opDue(start time.Time, k int) time.Time {
	return start.Add(s.arrival + time.Duration(k)*chunkPeriod)
}

// slotSchedule fills one lane of the schedule from its own seeded
// stream: the lane starts at a staggered offset, and each session arrives
// a seeded 0.2–1.0 s after the previous one's last op was due, until the
// lane passes span. Arrivals depend on the seed alone, never on how fast
// the server answers. Every lane keeps its own phase within the 50 ms
// chunk period, so chunks of different sessions are never due at the
// same instant and how many collide does not vary from seed to seed.
func slotSchedule(seed uint64, slot int, span time.Duration, synth func(wordSpec) (*script, error)) ([]*wordSession, error) {
	rng := newRand(seed, 100+uint64(slot))
	pool := wordPool()
	phase := time.Duration(slot) * chunkPeriod / wordsSlots
	t := time.Duration(slot)*(wordsWarm/wordsSlots).Truncate(chunkPeriod) + phase
	var out []*wordSession
	for i := slot; t < span; i += wordsSlots {
		sc, err := synth(drawWordSpec(rng, pool, i))
		if err != nil {
			return nil, err
		}
		out = append(out, &wordSession{sc: sc, arrival: t})
		gap := time.Duration(4+rng.IntN(17)) * chunkPeriod
		t += time.Duration(len(sc.ops))*chunkPeriod + gap
	}
	return out, nil
}

// item is one entry of the open-loop event queue, which holds each
// session's next op and the /metricsz reader's visits, ordered by due
// time.
type item struct {
	due    time.Time
	sess   *wordSession // nil: a scrape
	window bool         // the scrape that opens the timed window
}

type itemHeap []item

func (h itemHeap) Len() int           { return len(h) }
func (h itemHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h itemHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)        { *h = append(*h, x.(item)) }
func (h *itemHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

type wordsRun struct {
	st     *stack
	client *http.Client
	tr     *tracer
	start  time.Time
	end    time.Time // window end: ops due later are not sent
	d      *runData

	mu       sync.Mutex
	cond     *sync.Cond
	q        itemHeap
	inflight int
}

// prepareWords synthesizes the seed's schedule (not timed).
func prepareWords(seed uint64, seconds int) ([]*wordSession, error) {
	span := wordsWarm + time.Duration(seconds)*time.Second
	slots := make([][]*wordSession, wordsSlots)
	err := parallel(wordsSlots, func(j int) error {
		var err error
		slots[j], err = slotSchedule(seed, j, span, wordSpec.synthesize)
		return err
	})
	var sessions []*wordSession
	for _, s := range slots {
		sessions = append(sessions, s...)
	}
	return sessions, err
}

func runWords(sessions []*wordSession, seconds int, tr *tracer) (*runData, error) {
	for _, s := range sessions {
		*s = wordSession{sc: s.sc, arrival: s.arrival, next: -1}
	}
	st, rec, setup, err := setupStack(tr, setupReps)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	nproc := runtime.GOMAXPROCS(0)
	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	defer transport.CloseIdleConnections()

	w := &wordsRun{st: st, client: &http.Client{Transport: transport}, tr: tr, d: &runData{setup: setup, tr: tr}}
	if w.d.mSetup, err = scrape(st.handler); err != nil {
		return nil, err
	}
	w.cond = sync.NewCond(&w.mu)
	w.start = time.Now().Add(50 * time.Millisecond)
	w.d.winStart = w.start.Add(wordsWarm)
	w.end = w.d.winStart.Add(time.Duration(seconds) * time.Second)
	w.d.winEnd = w.end
	for _, s := range sessions {
		w.q = append(w.q, item{due: w.start.Add(s.arrival), sess: s})
	}
	for t := w.start.Add(chunkPeriod / wordsSlots / 2); t.Before(w.end); t = t.Add(scrapeInterval) {
		w.q = append(w.q, item{due: t})
	}
	w.q = append(w.q, item{due: w.d.winStart, window: true})
	heap.Init(&w.q)

	var wg sync.WaitGroup
	wg.Add(nproc)
	for i := 0; i < nproc; i++ {
		go func() {
			defer wg.Done()
			w.drive()
		}()
	}
	wg.Wait()
	w.d.u1 = sampleUsage()
	for _, s := range sessions {
		for k, o := range s.sc.ops {
			if o.kind == opChunk && w.d.inWindow(s.opDue(w.start, k)) {
				w.d.offered += float64(o.samples) / sampleRate
			}
		}
	}
	w.d.offered /= w.d.window().Seconds()
	if w.d.m1, err = scrape(st.handler); err != nil {
		return nil, err
	}
	if st.svc != nil {
		w.d.feeds = st.svc.feedLog()
	}
	return w.d, w.check(sessions, rec)
}

// drive is one of the nproc client goroutines: it takes the earliest due
// item, waits for its due time and runs it.
func (w *wordsRun) drive() {
	for {
		w.mu.Lock()
		for w.q.Len() == 0 && w.inflight > 0 {
			w.cond.Wait()
		}
		if w.q.Len() == 0 {
			w.mu.Unlock()
			return
		}
		it := heap.Pop(&w.q).(item)
		w.inflight++
		w.mu.Unlock()

		time.Sleep(time.Until(it.due))
		next, ok := w.exec(it)

		w.mu.Lock()
		w.inflight--
		if ok {
			heap.Push(&w.q, next)
		}
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// exec runs one item and returns the session's follow-up, if any.
func (w *wordsRun) exec(it item) (item, bool) {
	if it.sess == nil {
		w.scrapeAt(it.window)
		return item{}, false
	}
	s := it.sess
	switch {
	case s.next < 0:
		id, err := w.open()
		w.count(it.due, err)
		if err != nil {
			return item{}, false
		}
		s.id, s.next = id, 0
	case s.next < len(s.sc.ops):
		k := s.next
		sent := time.Now()
		out, err := w.send(s, s.sc.ops[k])
		ack := time.Now()
		w.count(it.due, err)
		if err != nil {
			return item{}, false
		}
		s.outs = append(s.outs, out)
		s.due = append(s.due, it.due)
		s.ack = append(s.ack, ack)
		w.mu.Lock()
		if w.d.inWindow(it.due) {
			if s.sc.ops[k].kind == opChunk {
				w.d.feedMs = append(w.d.feedMs, ms(ack.Sub(it.due)))
				w.d.lateMs = append(w.d.lateMs, ms(sent.Sub(it.due)))
				w.d.audio += float64(s.sc.ops[k].samples) / sampleRate
				if ack.Before(w.end) {
					w.d.doneAudio += float64(s.sc.ops[k].samples) / sampleRate
				}
			} else {
				w.d.flushMs = append(w.d.flushMs, ms(ack.Sub(it.due)))
			}
		}
		w.mu.Unlock()
		s.next++
		if s.next == len(s.sc.ops) {
			return item{due: ack, sess: s}, true // close right after the flush
		}
	default:
		err := w.request(http.MethodDelete, "/v1/sessions/"+s.id, nil, "client.close", s.id, nil)
		w.count(it.due, err)
		return item{}, false
	}
	due := s.opDue(w.start, s.next)
	if !due.Before(w.end) {
		return item{}, false // the window closed: the session is cut here
	}
	return item{due: due, sess: s}, true
}

// count tallies an attempted operation due in the window.
func (w *wordsRun) count(due time.Time, err error) {
	if !w.d.inWindow(due) {
		return
	}
	w.mu.Lock()
	w.d.attempted++
	if err != nil {
		w.d.failed++
	}
	w.mu.Unlock()
}

func (w *wordsRun) scrapeAt(window bool) {
	v, err := scrape(w.st.handler)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.d.attempted++
		w.d.failed++
		return
	}
	w.d.scrapes = append(w.d.scrapes, v)
	if window {
		w.d.m0 = v
		w.d.u0 = sampleUsage()
	}
}

func (w *wordsRun) open() (string, error) {
	id := w.tr.newID()
	t0 := time.Now()
	var resp struct{ Session string }
	err := w.roundTrip(http.MethodPost, "/v1/sessions", nil, id, &resp)
	w.tr.record(id, 0, resp.Session, "client.open", t0, time.Now())
	if err == nil && resp.Session == "" {
		err = fmt.Errorf("open: no session in response")
	}
	return resp.Session, err
}

func (w *wordsRun) send(s *wordSession, o op) (opOut, error) {
	if o.kind == opChunk {
		var resp struct{ Detections []serve.DetectionJSON }
		err := w.request(http.MethodPost, "/v1/sessions/"+s.id+"/audio", o.pcm, "client.chunk", s.id, &resp)
		return opOut{dets: fromWireDets(resp.Detections)}, err
	}
	var resp struct {
		Detections []serve.DetectionJSON
		Words      []serve.CandidateJSON
	}
	err := w.request(http.MethodPost, "/v1/sessions/"+s.id+"/flush", nil, "client.flush", s.id, &resp)
	return opOut{dets: fromWireDets(resp.Detections), words: fromWireCands(resp.Words)}, err
}

// request performs one call, retrying 429 like ewload, inside a client
// span, and decodes a JSON reply into out.
func (w *wordsRun) request(method, path string, body []byte, spanName, session string, out any) error {
	id := w.tr.newID()
	t0 := time.Now()
	err := w.roundTrip(method, path, body, id, out)
	w.tr.record(id, 0, session, spanName, t0, time.Now())
	return err
}

func (w *wordsRun) roundTrip(method, path string, body []byte, spanID int64, out any) error {
	for try := 0; ; try++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, w.st.base+path, rd)
		if err != nil {
			return err
		}
		if spanID != 0 {
			req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && try < backpressureTry:
			time.Sleep(2 * time.Millisecond)
			continue
		case resp.StatusCode/100 != 2:
			return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
		case out != nil:
			return json.Unmarshal(data, out)
		}
		return nil
	}
}

// check replays every session's sent ops single-threaded in-process and
// compares transcripts; it also scores accuracy on sessions that flushed
// inside the window and collects detection lags.
func (w *wordsRun) check(sessions []*wordSession, rec *infer.Recognizer) error {
	refs := make([]*reference, len(sessions))
	slots := make(chan *pipeline.Stream, runtime.GOMAXPROCS(0)) // one per replay goroutine
	for i := 0; i < cap(slots); i++ {
		st, err := newStream()
		if err != nil {
			return err
		}
		slots <- st
	}
	err := parallel(len(sessions), func(i int) error {
		st := <-slots
		defer func() { slots <- st }()
		var err error
		refs[i], err = replay(st, rec, sessions[i].sc, len(sessions[i].outs))
		return err
	})
	if err != nil {
		return err
	}
	for i, s := range sessions {
		ref := refs[i]
		bad, why := mismatches(s.outs, ref)
		if bad > 0 {
			w.d.failed += bad
			fmt.Printf("perfbench: session %s (%s) differs from its replay: %s\n", s.id, s.sc.name, why)
		}
		if len(s.outs) == len(s.sc.ops) && w.d.inWindow(s.due[len(s.due)-1]) {
			if err := w.d.acc.add(s.sc, s.outs); err != nil {
				return err
			}
		}
		for k, out := range s.outs {
			if w.d.inWindow(s.due[k]) {
				w.d.countDets(out.dets)
			}
			for _, det := range out.dets {
				c := ref.carrierOp(det.End)
				if w.d.inWindow(s.due[c]) {
					w.d.lagMs = append(w.d.lagMs, ms(s.ack[k].Sub(s.due[c])))
				}
			}
		}
	}
	return nil
}
