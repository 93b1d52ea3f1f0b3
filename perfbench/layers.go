package main

import "time"

// kernelWidth is the window the sessions of each workload reach: word
// sessions average about 200 columns, phrase sessions sit at the
// 1024-column cap.
var kernelWidth = map[string]int{
	"words-http-paced":     200,
	"phrases-ws-saturated": 1024,
	"adversarial-offline":  200,
}

// Span names at each boundary the benchmark times.
var (
	clientSpans  = map[string]bool{"client.open": true, "client.chunk": true, "client.flush": true, "client.close": true}
	serviceSpans = map[string]bool{"serve.Open": true, "serve.Feed": true, "serve.Flush": true, "serve.Close": true}
	callerSpans  = map[string]bool{"http.handler": true, "client.open": true, "client.chunk": true, "client.flush": true, "client.close": true}
)

// perLayer builds the traced run's report: layer metrics from the traced
// pass d, tracing overhead against the untraced pass plain, and the
// kernel sweep.
func perLayer(workload string, plain, d *runData, k *kernelTimes) report {
	r := report{}
	spans := d.tr.snapshot()
	linkByContainment(spans, serviceSpans, callerSpans)
	self := selfTimes(spans)
	in := func(s span) bool { return d.inWindow(d.tr.epoch.Add(time.Duration(s.Start))) }

	byName := func(name string, onlyWindow bool) (durs []float64) {
		for _, s := range spans {
			if s.Name == name && (!onlyWindow || in(s)) {
				durs = append(durs, ms(s.dur()))
			}
		}
		return durs
	}
	audio := d.audio

	// serve: the Service wrapper's view.
	feedDur := byName("serve.Feed", true)
	flushDur := byName("serve.Flush", true)
	openDur := byName("serve.Open", false)
	r.set("serve.feed_ms_p50", "ms", quantile(feedDur, 0.5))
	r.set("serve.feed_ms_p99", "ms", quantile(feedDur, 0.99))
	r.set("serve.flush_ms_p50", "ms", quantile(flushDur, 0.5))
	r.set("serve.open_ms_p50", "ms", quantile(openDur, 0.5))
	r.set("serve.feed_calls", "count", float64(len(feedDur)))
	stageDelta := d.m1.stageSeconds() - d.m0.stageSeconds()
	r.set("serve.wait_s_per_audio_s", "s/s", ((sum(feedDur)+sum(flushDur))/1e3-stageDelta)/audio)
	rejected, attempts := 0, 0
	var young, aged []float64
	for _, f := range d.feeds {
		if f.age < 5 {
			young = append(young, ms(f.dur))
		} else if f.age >= 20 {
			aged = append(aged, ms(f.dur))
		}
		if d.inWindow(f.at) {
			attempts++
			if f.rejected {
				rejected++
			}
		}
	}
	r.set("serve.backpressure_ratio", "ratio", float64(rejected)/float64(max(attempts, 1)))
	r.set("serve.feed_age_ratio", "ratio", ratio(mean(aged), mean(young)))
	queueMax, scrapeMs, scrapeBytes := 0.0, []float64{}, []float64{}
	for _, v := range d.scrapes {
		scrapeMs = append(scrapeMs, ms(v.dur))
		scrapeBytes = append(scrapeBytes, float64(v.bytes))
		if d.inWindow(v.at) {
			queueMax = max(queueMax, v.queueMax)
		}
	}
	r.set("serve.queue_len_max", "count", queueMax)
	checkouts := (d.m1.poolReused - d.mSetup.poolReused) + (d.m1.poolCreated - d.mSetup.poolCreated)
	r.set("serve.pool_reuse_ratio", "ratio", ratio(d.m1.poolReused-d.mSetup.poolReused, checkouts))

	// http: handler middleware and client spans.
	var handlerSelf, clientSelf []float64
	requests := 0
	for _, s := range spans {
		if !in(s) {
			continue
		}
		switch {
		case s.Name == "http.handler" && s.Session != "":
			handlerSelf = append(handlerSelf, ms(self[s.ID]))
			requests++
		case s.Name == "client.chunk":
			clientSelf = append(clientSelf, ms(self[s.ID]))
		}
	}
	httpRun := workload == "words-http-paced"
	r.set("http.requests", "count", float64(requests))
	r.set("http.self_ms_p50", "ms", quantile(handlerSelf, 0.5))
	r.set("http.client_ms_p99", "ms", pick(httpRun, quantile(clientSelf, 0.99)))

	// ws: client frame→ack spans minus the Service span, and /metricsz.
	wsRun := workload == "phrases-ws-saturated"
	r.set("ws.self_ms_p50", "ms", pick(wsRun, quantile(clientSelf, 0.5)))
	r.set("ws.push_ms_p50", "ms", histQuantile(d.m1.pushLe, d.m0.pushCum, d.m1.pushCum, 0.5))
	r.set("ws.frames_in", "count", d.m1.wsIn-d.m0.wsIn)
	r.set("ws.frames_out", "count", d.m1.wsOut-d.m0.wsOut)

	// pipeline: stage seconds from /metricsz deltas on served runs, from
	// Stream.Timings offline.
	stages := map[string]float64{}
	if workload == "adversarial-offline" {
		stages["stft"] = d.stages.STFT.Seconds()
		stages["enhancement"] = d.stages.Enhancement.Seconds()
		stages["profile"] = d.stages.Profile.Seconds()
		stages["segmentation"] = d.stages.Segmentation.Seconds()
		stages["dtw"] = d.stages.DTW.Seconds()
	} else {
		for name, v := range d.m1.stages {
			stages[name] = v - d.m0.stages[name]
		}
	}
	total := 0.0
	for _, name := range []string{"stft", "enhancement", "profile", "segmentation", "dtw"} {
		r.set("pipeline."+name+"_s_per_audio_s", "s/s", stages[name]/audio)
		total += stages[name]
	}
	r.set("pipeline.enhancement_share", "ratio", ratio(stages["enhancement"], total))
	r.set("pipeline.contaminated_ratio", "ratio", ratio(float64(d.contam), float64(d.dets)))
	pipeFeed := byName("pipeline.Feed", true)
	r.set("pipeline.feed_ms_p99", "ms", quantile(pipeFeed, 0.99))

	// Kernels on windows cut from this workload's traces.
	r.set("dsp.frame_column_us", "us", float64(k.frameColumn)/1e3)
	r.set("imgproc.median3x3_ms", "ms", ms(k.median))
	r.set("imgproc.gaussian_ms", "ms", ms(k.gaussian))
	r.set("imgproc.normalize_binarize_ms", "ms", ms(k.normBin))
	r.set("imgproc.fill_holes_ms", "ms", ms(k.fillHoles))
	r.set("imgproc.remove_small_ms", "ms", ms(k.removeSmall))
	r.set("imgproc.alloc_mb_per_pass", "MB", k.allocPerPass/1e6)
	r.set("mvce.extract_ms", "ms", ms(k.extract))
	r.set("segment.detect_us", "us", median(k.detect)/1e3)
	r.set("dtw.classify_us", "us", median(k.classify)/1e3)
	r.set("infer.recognize_us", "us", median(k.recognize)/1e3)

	// metrics/expose: the /metricsz reader.
	r.set("expose.scrape_ms_p50", "ms", median(scrapeMs))
	r.set("expose.scrape_bytes", "bytes", mean(scrapeBytes))

	// The generator and the tracer themselves.
	r.set("bench.gen_late_ms_p99", "ms", quantile(d.lateMs, 0.99))
	r.set("bench.offered_audio_s_per_s", "s/s", d.offered)
	r.set("bench.feed_samples", "count", float64(len(plain.feedMs)))
	r.set("bench.lag_samples", "count", float64(len(plain.lagMs)))
	r.set("bench.flush_samples", "count", float64(len(plain.flushMs)))
	e2eTraced, e2ePlain := d.endToEnd(), plain.endToEnd()
	r.set("trace.overhead_feed_ms_p50", "ms", e2eTraced["feed_ms_p50"].Value-e2ePlain["feed_ms_p50"].Value)
	r.set("trace.overhead_cpu_s_per_audio_s", "s/s", e2eTraced["cpu_s_per_audio_s"].Value-e2ePlain["cpu_s_per_audio_s"].Value)
	r.set("trace.self_sum_ratio", "ratio", selfSumRatio(spans, self))

	// Recognition quality of the untraced pass.
	seq, top1 := plain.acc.rates()
	r.set("quality.stroke_seq_exact", "ratio", seq)
	r.set("quality.word_top1", "ratio", top1)
	return r
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// pick returns v on the workload a metric belongs to and 0 elsewhere.
func pick(applies bool, v float64) float64 {
	if !applies {
		return 0
	}
	return v
}

// selfSumRatio checks the layer decomposition: over every client-rooted
// span tree, the self times of all spans in the tree add up to the root
// span's duration, so the ratio of the sums is 1.
func selfSumRatio(spans []span, self map[int64]time.Duration) float64 {
	parent := make(map[int64]int64, len(spans))
	isRoot := make(map[int64]bool)
	for _, s := range spans {
		parent[s.ID] = s.Parent
		if clientSpans[s.Name] {
			isRoot[s.ID] = true
		}
	}
	var selfSum, rootSum time.Duration
	for _, s := range spans {
		id := s.ID
		for id != 0 && !isRoot[id] {
			id = parent[id]
		}
		if id == 0 {
			continue
		}
		selfSum += self[s.ID]
		if s.ID == id {
			rootSum += s.dur()
		}
	}
	return ratio(float64(selfSum), float64(rootSum))
}
