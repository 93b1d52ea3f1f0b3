package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/infer"
	"repro/internal/serve"
)

// The phrases-ws-saturated workload: a closed loop of nproc WebSocket
// writers, each streaming one long multi-phrase session and sending its
// next frame as soon as the previous ack arrives. Each writer first
// streams phraseWarmAge seconds of audio, so the timed window sees
// sessions near and past the 1024-column (~24 s) window.
const (
	phraseYoungAge = 5  // audio seconds streamed in 50 ms chunks first
	phraseWarmAge  = 20 // audio seconds streamed before the window opens
	phraseMinWords = 16 // about 75 s of audio per writer
)

// phraseWriter is one writer's script and what its client saw.
type phraseWriter struct {
	sc       *script
	id       string
	outs     []opOut
	sent     []time.Time
	ack      []time.Time
	inWindow []bool
	err      error
}

func preparePhrases(seed uint64) ([]*phraseWriter, error) {
	rng := newRand(seed, 2)
	specs := make([]phraseSpec, runtime.GOMAXPROCS(0))
	for i := range specs {
		specs[i] = drawPhraseSpec(rng, phraseMinWords)
	}
	writers := make([]*phraseWriter, len(specs))
	err := parallel(len(specs), func(i int) error {
		sc, err := specs[i].synthesize()
		writers[i] = &phraseWriter{sc: sc}
		return err
	})
	return writers, err
}

func runPhrases(writers []*phraseWriter, seconds int, tr *tracer) (*runData, error) {
	for _, w := range writers {
		*w = phraseWriter{sc: w.sc}
	}
	st, rec, setup, err := setupStack(tr, setupReps)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	d := &runData{setup: setup, tr: tr}
	if d.mSetup, err = scrape(st.handler); err != nil {
		return nil, err
	}

	var (
		mu      sync.Mutex // guards d during the run
		warm    sync.WaitGroup
		done    sync.WaitGroup
		opened  = make(chan struct{})
		winEnd  time.Time
		scrapes = scrapeTicker{h: st.handler, next: time.Now()}
	)
	warm.Add(len(writers))
	done.Add(len(writers))
	for i, w := range writers {
		go func(i int, w *phraseWriter) {
			defer done.Done()
			var ticker *scrapeTicker
			if i == 0 {
				ticker = &scrapes // the first writer doubles as the /metricsz reader
			}
			w.err = w.stream(st.base, tr, ticker, &warm, opened, &winEnd, &mu, d)
		}(i, w)
	}
	warm.Wait()
	if d.m0, err = scrape(st.handler); err != nil {
		close(opened)
		done.Wait()
		return nil, err
	}
	d.u0 = sampleUsage()
	d.winStart = time.Now()
	winEnd = d.winStart.Add(time.Duration(seconds) * time.Second)
	close(opened)
	done.Wait()

	d.u1 = sampleUsage()
	if d.m1, err = scrape(st.handler); err != nil {
		return nil, err
	}
	d.scrapes = scrapes.vals
	d.attempted += scrapes.errs
	d.failed += scrapes.errs
	d.winEnd = d.winStart
	for _, w := range writers {
		if w.err != nil {
			d.attempted++
			d.failed++
			fmt.Printf("perfbench: writer %s: %v\n", w.sc.name, w.err)
		}
		for i, a := range w.ack {
			if w.inWindow[i] && a.After(d.winEnd) {
				d.winEnd = a
			}
		}
	}
	if st.svc != nil {
		d.feeds = st.svc.feedLog()
	}
	return d, checkPhrases(writers, rec, d)
}

// scrapeTicker lets a writer read /metricsz between its own frames, so
// the reader adds no goroutine or connection.
type scrapeTicker struct {
	h    http.Handler
	next time.Time
	vals []scrapeVals
	errs int
}

func (t *scrapeTicker) maybeScrape() {
	now := time.Now()
	if now.Before(t.next) {
		return
	}
	t.next = now.Add(scrapeInterval)
	v, err := scrape(t.h)
	if err != nil {
		t.errs++
		return
	}
	t.vals = append(t.vals, v)
}

// stream runs the writer: warm-up, barrier, window, close. Ops sent in
// the window are recorded into d.
func (w *phraseWriter) stream(base string, tr *tracer, ticker *scrapeTicker, warm *sync.WaitGroup,
	opened <-chan struct{}, winEnd *time.Time, mu *sync.Mutex, d *runData) error {
	warmed := false
	finishWarm := func() {
		if !warmed {
			warmed = true
			warm.Done()
			<-opened
		}
	}
	defer finishWarm()
	c, err := serve.DialStream(base, "", 10*time.Second)
	if err != nil {
		return err
	}
	w.id = c.Session
	defer func() { _ = c.Close() }() // the session ends with the run; a close error changes nothing measured
	fed := 0.0
	for k, o := range w.sc.ops {
		if !warmed && fed >= phraseWarmAge {
			finishWarm()
		}
		if warmed && !time.Now().Before(*winEnd) {
			return nil
		}
		if ticker != nil {
			ticker.maybeScrape()
		}
		in := warmed
		id := tr.newID()
		sent := time.Now()
		var out opOut
		name := "client.chunk"
		if o.kind == opChunk {
			dets, err := c.SendChunk(o.pcm)
			if err != nil {
				return fmt.Errorf("op %d: %w", k, err)
			}
			out.dets = fromWireDets(dets)
			fed += float64(o.samples) / sampleRate
		} else {
			name = "client.flush"
			dets, words, err := c.Flush()
			if err != nil {
				return fmt.Errorf("op %d: %w", k, err)
			}
			out = opOut{dets: fromWireDets(dets), words: fromWireCands(words)}
		}
		ack := time.Now()
		tr.record(id, 0, w.id, name, sent, ack)
		w.outs = append(w.outs, out)
		w.sent = append(w.sent, sent)
		w.ack = append(w.ack, ack)
		w.inWindow = append(w.inWindow, in)
		if !in {
			continue
		}
		mu.Lock()
		d.attempted++
		if o.kind == opChunk {
			d.feedMs = append(d.feedMs, ms(ack.Sub(sent)))
			d.audio += float64(o.samples) / sampleRate
			d.doneAudio += float64(o.samples) / sampleRate
		} else {
			d.flushMs = append(d.flushMs, ms(ack.Sub(sent)))
		}
		mu.Unlock()
	}
	return nil
}

func checkPhrases(writers []*phraseWriter, rec *infer.Recognizer, d *runData) error {
	refs := make([]*reference, len(writers))
	err := parallel(len(writers), func(i int) error {
		st, err := newStream()
		if err != nil {
			return err
		}
		refs[i], err = replay(st, rec, writers[i].sc, len(writers[i].outs))
		return err
	})
	if err != nil {
		return err
	}
	for i, w := range writers {
		ref := refs[i]
		if bad, why := mismatches(w.outs, ref); bad > 0 {
			d.failed += bad
			fmt.Printf("perfbench: writer %s (%s) differs from its replay: %s\n", w.id, w.sc.name, why)
		}
		if err := d.acc.add(w.sc, w.outs); err != nil {
			return err
		}
		for k, out := range w.outs {
			if w.inWindow[k] {
				d.countDets(out.dets)
			}
			for _, det := range out.dets {
				if c := ref.carrierOp(det.End); w.inWindow[c] {
					d.lagMs = append(d.lagMs, ms(w.ack[k].Sub(w.sent[c])))
				}
			}
		}
	}
	return nil
}
