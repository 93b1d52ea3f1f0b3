package serve

import (
	"strconv"
	"time"

	"repro/internal/metrics/expose"
	ewruntime "repro/internal/runtime"
)

// metricsSource is what NewServer needs to build /metricsz: the
// service's shards. *ShardedManager implements it, and so does any type
// that embeds one.
type metricsSource interface {
	serviceShards() shardSet
}

// stageNames orders the per-stage counter series; the accessor pulls
// the matching duration out of a StageBreakdown.
var stageNames = [...]struct {
	name string
	get  func(b *ewruntime.StageBreakdown) time.Duration
}{
	{"stft", func(b *ewruntime.StageBreakdown) time.Duration { return b.STFT }},
	{"enhancement", func(b *ewruntime.StageBreakdown) time.Duration { return b.Enhancement }},
	{"profile", func(b *ewruntime.StageBreakdown) time.Duration { return b.Profile }},
	{"segmentation", func(b *ewruntime.StageBreakdown) time.Duration { return b.Segmentation }},
	{"dtw", func(b *ewruntime.StageBreakdown) time.Duration { return b.DTW }},
}

// newServiceRegistry builds the /metricsz registry over a service's
// shards. Every family either carries a shard="N" label (per-shard
// counters and the feed-latency histogram, so cross-shard skew — the
// ROADMAP's rebalancing concern — is visible from a dashboard) or is a
// service-wide scalar. Label sets are precomputed: the shard count is
// fixed for the life of the manager, so scrapes only allocate the
// per-scrape point slices.
func newServiceRegistry(ss shardSet) *expose.Registry {
	r := expose.NewRegistry()
	labels := make([][]expose.Label, len(ss))
	for i := range labels {
		labels[i] = []expose.Label{{Name: "shard", Value: strconv.Itoa(i)}}
	}

	perShard := func(name, help string, kind expose.Kind, get func(ShardStats) float64) {
		r.MustRegister(expose.Desc{Name: name, Help: help, Kind: kind},
			func(emit func(expose.Point)) {
				for i, sv := range ss.views() {
					emit(expose.Point{Labels: labels[i], Value: get(sv)})
				}
			})
	}
	perShard("echowrite_active_sessions", "Open sessions in the shard's table.",
		expose.KindGauge, func(s ShardStats) float64 { return float64(s.ActiveSessions) })
	perShard("echowrite_queue_len", "Jobs waiting in the shard's ingest queue.",
		expose.KindGauge, func(s ShardStats) float64 { return float64(s.QueueLen) })
	perShard("echowrite_queue_cap", "Capacity of the shard's ingest queue.",
		expose.KindGauge, func(s ShardStats) float64 { return float64(s.QueueCap) })
	perShard("echowrite_chunks_total", "Audio chunks processed successfully.",
		expose.KindCounter, func(s ShardStats) float64 { return float64(s.Chunks) })
	perShard("echowrite_detections_total", "Strokes detected.",
		expose.KindCounter, func(s ShardStats) float64 { return float64(s.Detections) })
	perShard("echowrite_backpressure_rejects_total", "Feeds shed with 429 because the shard's queue was full.",
		expose.KindCounter, func(s ShardStats) float64 { return float64(s.Backpressure) })
	perShard("echowrite_feed_errors_total", "Feeds that failed inside the pipeline after admission (e.g. oversized chunks); their latency and stage time are still recorded.",
		expose.KindCounter, func(s ShardStats) float64 { return float64(s.FeedErrors) })
	perShard("echowrite_idle_evictions_total", "Sessions reclaimed after IdleTimeout.",
		expose.KindCounter, func(s ShardStats) float64 { return float64(s.Evictions) })

	r.MustRegister(expose.Desc{Name: "echowrite_max_sessions",
		Help: "Configured session-table bound, summed over shards.", Kind: expose.KindGauge},
		func(emit func(expose.Point)) {
			maxSessions, _ := ss.limits()
			emit(expose.Point{Value: float64(maxSessions)})
		})
	r.MustRegister(expose.Desc{Name: "echowrite_workers",
		Help: "Worker goroutines, summed over shards.", Kind: expose.KindGauge},
		func(emit func(expose.Point)) {
			_, workers := ss.limits()
			emit(expose.Point{Value: float64(workers)})
		})
	r.MustRegister(expose.Desc{Name: "echowrite_engine_pool_created_total",
		Help: "Recognizer engines built over the service lifetime.", Kind: expose.KindCounter},
		func(emit func(expose.Point)) {
			emit(expose.Point{Value: float64(ss.pool().Created)})
		})
	r.MustRegister(expose.Desc{Name: "echowrite_engine_pool_reused_total",
		Help: "Engine checkouts served from the warm free list.", Kind: expose.KindCounter},
		func(emit func(expose.Point)) {
			emit(expose.Point{Value: float64(ss.pool().Reused)})
		})
	r.MustRegister(expose.Desc{Name: "echowrite_engine_pool_free",
		Help: "Warm engines currently checked in.", Kind: expose.KindGauge},
		func(emit func(expose.Point)) {
			emit(expose.Point{Value: float64(ss.pool().Free)})
		})

	stageLabels := make([][]expose.Label, len(stageNames))
	for i := range stageNames {
		stageLabels[i] = []expose.Label{{Name: "stage", Value: stageNames[i].name}}
	}
	r.MustRegister(expose.Desc{Name: "echowrite_stage_seconds_total",
		Help: "Cumulative pipeline time per stage; divide by echowrite_strokes_total for the per-stroke breakdown /statsz reports.",
		Kind: expose.KindCounter},
		func(emit func(expose.Point)) {
			b := ss.stages()
			for i := range stageNames {
				emit(expose.Point{Labels: stageLabels[i], Value: stageNames[i].get(&b).Seconds()})
			}
		})
	r.MustRegister(expose.Desc{Name: "echowrite_strokes_total",
		Help: "Strokes covered by the stage totals.", Kind: expose.KindCounter},
		func(emit func(expose.Point)) {
			emit(expose.Point{Value: float64(ss.stages().Strokes)})
		})

	r.MustRegister(expose.Desc{Name: "echowrite_feed_latency_milliseconds",
		Help: "Per-feed pipeline latency histogram (log-spaced ms buckets), per shard.",
		Kind: expose.KindHistogram},
		func(emit func(expose.Point)) {
			for i, v := range ss.latencyViews() {
				emit(expose.Point{Labels: labels[i], Hist: &v})
			}
		})
	return r
}

// registerWSMetrics appends the streaming subsystem's families to the
// service registry, so one /metricsz scrape covers both ingest paths.
// The counters are server-wide (connections are not pinned to shards).
func registerWSMetrics(r *expose.Registry, ws *wsStats) {
	r.MustRegister(expose.Desc{Name: "echowrite_ws_connections",
		Help: "Open /v1/stream WebSocket connections.", Kind: expose.KindGauge},
		func(emit func(expose.Point)) {
			emit(expose.Point{Value: float64(ws.connections.Load())})
		})
	r.MustRegister(expose.Desc{Name: "echowrite_ws_frames_in_total",
		Help: "Client frames received on stream connections (audio chunks and commands).",
		Kind: expose.KindCounter},
		func(emit func(expose.Point)) {
			emit(expose.Point{Value: float64(ws.framesIn.Load())})
		})
	r.MustRegister(expose.Desc{Name: "echowrite_ws_frames_out_total",
		Help: "Event frames pushed to stream clients.", Kind: expose.KindCounter},
		func(emit func(expose.Point)) {
			emit(expose.Point{Value: float64(ws.framesOut.Load())})
		})
	r.MustRegister(expose.Desc{Name: "echowrite_ws_push_latency_milliseconds",
		Help: "Queue-to-wire latency of pushed stream events (log-spaced ms buckets).",
		Kind: expose.KindHistogram},
		func(emit func(expose.Point)) {
			v := ws.pushLat.View()
			emit(expose.Point{Hist: &v})
		})
}
