package main

import (
	"time"

	"repro/internal/pipeline"
)

// runData is what one workload pass measured, in the form both the
// end-to-end and the per-layer reports read.
type runData struct {
	setup []float64 // seconds per set-up repetition

	feedMs  []float64 // chunk round trips in the window
	flushMs []float64 // flush round trips in the window
	lagMs   []float64 // detection lags in the window
	lateMs  []float64 // open loop: how late each chunk was sent

	winStart, winEnd time.Time
	audio            float64 // audio seconds of the window's chunks
	doneAudio        float64 // of which acknowledged inside the window
	offered          float64 // open loop: audio seconds due per second
	u0, u1           usage

	attempted, failed int
	acc               accuracy

	// Served runs: /metricsz at the window's edges and on the interval.
	mSetup  scrapeVals // right after set-up, before any session
	m0, m1  scrapeVals
	scrapes []scrapeVals

	// Offline run: stage time and detections from the streams.
	stages       pipeline.StageTimings
	dets, contam int

	tr    *tracer
	feeds []feedObs // tracedService's view, traced served runs only
}

func (d *runData) window() time.Duration { return d.winEnd.Sub(d.winStart) }

func (d *runData) inWindow(t time.Time) bool {
	return !t.Before(d.winStart) && t.Before(d.winEnd)
}

// warnTails notes every end-to-end percentile the window's sample does
// not support.
func (d *runData) warnTails() {
	warnTail("feed_ms_p95", len(d.feedMs), 0.95)
	warnTail("detection_lag_ms_p95", len(d.lagMs), 0.95)
	warnTail("flush_ms_p50", len(d.flushMs), 0.50)
}

// endToEnd is the report every workload prints with tracing off.
func (d *runData) endToEnd() report {
	r := report{}
	r.set("setup_s", "s", median(d.setup))
	r.pct("feed_ms_p50", "ms", d.feedMs, 0.50)
	r.pct("feed_ms_p95", "ms", d.feedMs, 0.95)
	r.pct("detection_lag_ms_p50", "ms", d.lagMs, 0.50)
	r.pct("detection_lag_ms_p95", "ms", d.lagMs, 0.95)
	r.pct("flush_ms_p50", "ms", d.flushMs, 0.50)
	r.set("audio_s_per_s", "s/s", d.doneAudio/d.window().Seconds())
	r.set("cpu_s_per_audio_s", "s/s", (d.u1.cpu-d.u0.cpu).Seconds()/d.audio)
	r.set("alloc_mb_per_audio_s", "MB/s", float64(d.u1.alloc-d.u0.alloc)/1e6/d.audio)
	r.set("ok_rate", "ratio", 1-float64(d.failed)/float64(max(d.attempted, 1)))
	return r
}

func (d *runData) countDets(dets []detRec) {
	for _, det := range dets {
		d.dets++
		if det.Contaminated {
			d.contam++
		}
	}
}
