package main

import (
	"fmt"
	"time"

	"repro/internal/infer"
	"repro/internal/pipeline"
)

// The adversarial-offline workload: one goroutine and no server. Cells of
// the adversarial scenario matrix are replayed through one
// pipeline.Stream (Reset between traces) in 50 ms chunks, unpaced, with
// infer on each flush, cycling through the cells until the window ends.
func prepareOffline(seed uint64) ([]*script, error) {
	cells := adversarialCells(seed)
	scripts := make([]*script, len(cells))
	err := parallel(len(cells), func(i int) error {
		var err error
		scripts[i], err = cellScript(cells[i])
		return err
	})
	return scripts, err
}

// newStream builds an engine and its stream with the serving defaults.
func newStream() (*pipeline.Stream, error) {
	eng, err := pipeline.NewEngine(pipeline.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return pipeline.NewStream(eng), nil
}

// setupOffline builds the recognizer, engine and stream reps times,
// keeping the last, and returns the build times in seconds.
func setupOffline(reps int) (*pipeline.Stream, *infer.Recognizer, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		rec, err := newRecognizer()
		if err != nil {
			return nil, nil, nil, err
		}
		st, err := newStream()
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			return st, rec, times, nil
		}
	}
}

// offlinePass is one replay of one trace inside the window.
type offlinePass struct {
	cell int
	outs []opOut
	call []time.Time // per op: call start
	ret  []time.Time // per op: return
}

func runOffline(scripts []*script, seconds int, tr *tracer) (*runData, error) {
	st, rec, setup, err := setupOffline(setupReps)
	if err != nil {
		return nil, err
	}
	d := &runData{setup: setup, tr: tr}
	// The reference comes first, on fresh streams, so the window's cycle
	// never depends on how fast the check ran.
	refs := make([]*reference, len(scripts))
	err = parallel(len(scripts), func(i int) error {
		fresh, err := newStream()
		if err != nil {
			return err
		}
		refs[i], err = replay(fresh, rec, scripts[i], len(scripts[i].ops))
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scripts {
		if err := d.acc.add(sc, refs[i].outs); err != nil {
			return nil, err
		}
	}

	var passes []offlinePass
	d.u0 = sampleUsage()
	d.winStart = time.Now()
	end := d.winStart.Add(time.Duration(seconds) * time.Second)
	for i := 0; time.Now().Before(end); i++ {
		p, err := replayTimed(st, rec, scripts[i%len(scripts)], i%len(scripts), tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		t := st.Timings()
		d.stages.STFT += t.STFT
		d.stages.Enhancement += t.Enhancement
		d.stages.Profile += t.Profile
		d.stages.Segmentation += t.Segmentation
		d.stages.DTW += t.DTW
	}
	d.winEnd = time.Now()
	d.u1 = sampleUsage()

	for _, p := range passes {
		sc, ref := scripts[p.cell], refs[p.cell]
		d.attempted += len(p.outs)
		if bad, why := mismatches(p.outs, ref); bad > 0 {
			d.failed += bad
			fmt.Printf("perfbench: trace %s differs from its fresh-stream replay: %s\n", sc.name, why)
		}
		for k, o := range sc.ops {
			switch o.kind {
			case opChunk:
				d.feedMs = append(d.feedMs, ms(p.ret[k].Sub(p.call[k])))
				d.audio += float64(o.samples) / sampleRate
			case opFlush:
				d.flushMs = append(d.flushMs, ms(p.ret[k].Sub(p.call[k])))
			}
			d.countDets(p.outs[k].dets)
			for _, det := range p.outs[k].dets {
				d.lagMs = append(d.lagMs, ms(p.ret[k].Sub(p.call[ref.carrierOp(det.End)])))
			}
		}
	}
	d.doneAudio = d.audio
	return d, nil
}

// replayTimed is replay with every call timed and, when traced, wrapped
// in pipeline.Feed / pipeline.Flush / infer.Recognize spans.
func replayTimed(st *pipeline.Stream, rec *infer.Recognizer, sc *script, cell int, tr *tracer) (offlinePass, error) {
	st.Reset()
	p := offlinePass{cell: cell, outs: make([]opOut, len(sc.ops)),
		call: make([]time.Time, len(sc.ops)), ret: make([]time.Time, len(sc.ops))}
	session := fmt.Sprintf("%s#%d", sc.name, tr.newID())
	var seq []pipeline.Detection
	for k, o := range sc.ops {
		var (
			dets []pipeline.Detection
			err  error
		)
		var chunk []float64
		if o.kind == opChunk {
			chunk = decodePCM16(o.pcm)
		}
		p.call[k] = time.Now()
		if o.kind == opChunk {
			dets, err = st.Feed(chunk)
			tr.record(tr.newID(), 0, session, "pipeline.Feed", p.call[k], time.Now())
		} else {
			dets, err = st.Flush()
			tr.record(tr.newID(), 0, session, "pipeline.Flush", p.call[k], time.Now())
		}
		if err != nil {
			return p, fmt.Errorf("trace %s op %d: %w", sc.name, k, err)
		}
		p.outs[k].dets = fromPipeline(dets)
		seq = append(seq, dets...)
		if o.kind == opFlush {
			if len(seq) > 0 {
				t0 := time.Now()
				cands, err := rec.Recognize(sequenceOf(seq))
				tr.record(tr.newID(), 0, session, "infer.Recognize", t0, time.Now())
				if err != nil {
					return p, err
				}
				p.outs[k].words = fromCandidates(cands)
			}
			seq = seq[:0]
		}
		p.ret[k] = time.Now()
	}
	return p, nil
}
