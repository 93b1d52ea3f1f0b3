package serve

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"repro/internal/infer"
	"repro/internal/metrics"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
)

// ShardedManager is the session service: it hash-partitions sessions by
// session ID across N independent shards. Each shard owns its own
// session table, job queue, worker pool and EnginePool, so no mutex or
// channel is shared between sessions on different shards. Backpressure
// and idle eviction are per-shard: a hot shard 429s its own sessions
// while the rest of the service keeps serving. One shard is a plain
// bounded manager with a single queue and worker pool.
//
// Session IDs are minted centrally from an atomic counter and routed by
// FNV-1a hash, so any holder of an ID (HTTP handlers, load generators)
// reaches the owning shard without a routing table.
type ShardedManager struct {
	shards shardSet
	nextID atomic.Uint64
}

// ShardFor returns the index of the shard that owns (or would own) a
// session ID. Exposed for the stress/invariant test layer.
func (sm *ShardedManager) ShardFor(id string) int {
	return shardIndex(id, len(sm.shards))
}

// NumShards reports the shard count.
func (sm *ShardedManager) NumShards() int { return len(sm.shards) }

// shardIndex is FNV-1a over the ID, reduced mod n.
func shardIndex(id string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// NewShardedManager splits cfg's totals across shards and starts them.
// shards <= 0 defaults to GOMAXPROCS. The config's MaxSessions, Workers,
// QueueDepth and Prewarm are service-wide totals, divided per shard (at
// least one each). With shards == 1 the service is a single bounded
// manager with exactly cfg's queue, worker and session bounds.
func NewShardedManager(cfg Config, shards int) (*ShardedManager, error) {
	if shards <= 0 {
		shards = stdruntime.GOMAXPROCS(0)
	}
	cfg = cfg.withDefaults() // resolve totals before dividing
	per := cfg
	per.MaxSessions = ceilDiv(cfg.MaxSessions, shards)
	per.Workers = max(1, cfg.Workers/shards)
	per.QueueDepth = max(1, cfg.QueueDepth/shards)
	per.Prewarm = ceilDiv(cfg.Prewarm, shards)

	sm := &ShardedManager{shards: make(shardSet, shards)}
	for i := range sm.shards {
		m, err := newShard(per)
		if err != nil {
			for _, built := range sm.shards[:i] {
				built.Shutdown()
			}
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		sm.shards[i] = m
	}
	return sm, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func (sm *ShardedManager) owner(id string) *shard {
	return sm.shards[shardIndex(id, len(sm.shards))]
}

// mintsPerShard bounds how many IDs one Open may mint per shard while
// it looks for a shard that is not yet known to be full.
const mintsPerShard = 8

// Open mints a fresh session ID and opens it on the shard the ID hashes
// to. When that shard's table is full, Open keeps minting until an ID
// hashes to a shard it has not tried yet, and fails with ErrSessionLimit
// only once every shard has refused — so one full shard does not refuse
// the whole service. Minting is bounded at mintsPerShard × NumShards IDs.
func (sm *ShardedManager) Open() (string, error) {
	full := make([]bool, len(sm.shards))
	untried := len(sm.shards)
	for mints := 0; untried > 0 && mints < mintsPerShard*len(sm.shards); mints++ {
		id := fmt.Sprintf("s%08d", sm.nextID.Add(1))
		i := shardIndex(id, len(sm.shards))
		if full[i] {
			continue
		}
		switch err := sm.shards[i].open(id); {
		case err == nil:
			return id, nil
		case !errors.Is(err, ErrSessionLimit):
			return "", err
		}
		full[i] = true
		untried--
	}
	return "", ErrSessionLimit
}

// Feed routes one audio chunk to the owning shard.
func (sm *ShardedManager) Feed(id string, chunk []float64) ([]pipeline.Detection, error) {
	return sm.owner(id).Feed(id, chunk)
}

// Flush drains a session on its owning shard.
func (sm *ShardedManager) Flush(id string) ([]pipeline.Detection, []infer.Candidate, error) {
	return sm.owner(id).Flush(id)
}

// Close removes a session from its owning shard.
func (sm *ShardedManager) Close(id string) error {
	return sm.owner(id).Close(id)
}

// Touch refreshes a session's idle clock on its owning shard.
func (sm *ShardedManager) Touch(id string) error {
	return sm.owner(id).Touch(id)
}

// EvictIdle sweeps every shard and returns the total evicted. Each shard
// holds only its own lock during its sweep.
func (sm *ShardedManager) EvictIdle() int {
	n := 0
	for _, m := range sm.shards {
		n += m.EvictIdle()
	}
	return n
}

// Shutdown stops every shard, in parallel so slow drains overlap.
func (sm *ShardedManager) Shutdown() {
	var wg sync.WaitGroup
	for _, m := range sm.shards {
		wg.Add(1)
		go func(m *shard) {
			defer wg.Done()
			m.Shutdown()
		}(m)
	}
	wg.Wait()
}

// MaxChunk reports the per-feed sample cap admission control enforces
// (identical on every shard; the HTTP front end derives its body limit
// from it).
func (sm *ShardedManager) MaxChunk() int {
	if c := sm.shards[0].cfg.MaxChunk; c > 0 {
		return c
	}
	return pipeline.DefaultMaxChunk
}

// serviceShards implements metricsSource. It stays a method of
// *ShardedManager so a type that embeds one keeps /metricsz.
func (sm *ShardedManager) serviceShards() shardSet { return sm.shards }

// Snapshot aggregates every shard into one Stats view: counters and
// occupancy sum, stage time sums before the per-stroke division,
// the feed-latency quantiles are estimated from the merged per-shard
// histograms, and Shards carries the per-shard detail.
func (sm *ShardedManager) Snapshot() Stats {
	ss := sm.shards
	agg := Stats{
		Pool:          ss.pool(),
		FeedLatencyMs: ss.feedLatency(),
		Shards:        ss.views(),
	}
	agg.MaxSessions, agg.Workers = ss.limits()
	for _, sv := range agg.Shards {
		agg.ActiveSessions += sv.ActiveSessions
		agg.QueueLen += sv.QueueLen
		agg.QueueCap += sv.QueueCap
		agg.Chunks += sv.Chunks
		agg.Detections += sv.Detections
		agg.Backpressure += sv.Backpressure
		agg.FeedErrors += sv.FeedErrors
		agg.Evictions += sv.Evictions
	}
	agg.PerStroke = stageMillis(ss.stages(), agg.Detections)
	return agg
}

// shardSet is a service's fixed shard slice. Snapshot and the /metricsz
// collectors both read through its methods, so every service-wide total
// is summed in one place.
type shardSet []*shard

// views returns every shard's counter view, in shard-index order.
func (ss shardSet) views() []ShardStats {
	out := make([]ShardStats, len(ss))
	for i, m := range ss {
		out[i] = m.shardView()
	}
	return out
}

// latencyViews snapshots every shard's feed-latency histogram,
// index-aligned with views.
func (ss shardSet) latencyViews() []expose.HistView {
	out := make([]expose.HistView, len(ss))
	for i, m := range ss {
		out[i] = m.latHist.View()
	}
	return out
}

// feedLatency estimates the p50/p95/p99 triple from the merged shard
// histograms; every field is 0 before the first feed.
func (ss shardSet) feedLatency() metrics.LatencySummary {
	v := expose.MergeViews(ss.latencyViews()...)
	return metrics.LatencySummary{P50: v.Quantile(0.50), P95: v.Quantile(0.95), P99: v.Quantile(0.99)}
}

// stages sums the cumulative stage time of every shard.
func (ss shardSet) stages() pipeline.StageTimings {
	var t pipeline.StageTimings
	for _, m := range ss {
		m.stages.addTo(&t)
	}
	return t
}

// limits sums the per-shard bounds, which is what admission control
// actually enforces.
func (ss shardSet) limits() (maxSessions, workers int) {
	for _, m := range ss {
		maxSessions += m.cfg.MaxSessions
		workers += m.cfg.Workers
	}
	return maxSessions, workers
}

// pool sums engine-pool occupancy over shards.
func (ss shardSet) pool() PoolStats {
	var p PoolStats
	for _, m := range ss {
		s := m.pool.Stats()
		p.Created += s.Created
		p.Reused += s.Reused
		p.Free += s.Free
	}
	return p
}
