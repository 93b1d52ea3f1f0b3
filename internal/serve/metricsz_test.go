package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/infer"
	"repro/internal/metrics"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
	"repro/internal/stroke"

	"repro/internal/testutil/leak"
)

// scrape fetches a server path and returns status, content type, body.
func scrape(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestMetricszGoldenZeroTraffic pins the full exposition — metric
// names, HELP/TYPE ordering, label rendering, histogram bucket layout
// with the +Inf bucket — byte for byte against testdata.
func TestMetricszGoldenZeroTraffic(t *testing.T) {
	leak.Check(t)
	cases := []struct {
		name   string
		golden string
		mk     func(t *testing.T) Service
	}{
		{"sharded", "testdata/metricsz_sharded_zero.txt", func(t *testing.T) Service {
			sm, err := NewShardedManager(Config{MaxSessions: 4, Workers: 2, QueueDepth: 8, Prewarm: 2}, 2)
			if err != nil {
				t.Fatal(err)
			}
			return sm
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			svc := c.mk(t)
			defer svc.Shutdown()
			ts := httptest.NewServer(NewServer(svc).Handler())
			defer ts.Close()
			status, ct, body := scrape(t, ts.URL, "/metricsz")
			if status != http.StatusOK {
				t.Fatalf("/metricsz status = %d", status)
			}
			if ct != metricsContentType {
				t.Errorf("content type = %q, want %q", ct, metricsContentType)
			}
			if body != string(want) {
				t.Errorf("exposition differs from %s:\n--- got ---\n%s", c.golden, body)
			}
			// The golden must itself satisfy the strict parser, including
			// histogram cumulativity.
			if _, err := expose.Parse(strings.NewReader(body)); err != nil {
				t.Errorf("golden exposition does not parse: %v", err)
			}
		})
	}
}

// TestMetricszSmoke is the CI smoke gate (`make metricsz-smoke`): boot
// a sharded service, drive real audio through it, then strictly parse
// the exposition and cross-check every counter family against /statsz.
func TestMetricszSmoke(t *testing.T) {
	leak.Check(t)
	sm, err := NewShardedManager(Config{MaxSessions: 8, Workers: 2, QueueDepth: 64, Prewarm: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()
	ts := httptest.NewServer(NewServer(sm).Handler())
	defer ts.Close()

	// Real traffic on two sessions, then quiesce before scraping so the
	// two endpoints see identical counters.
	sig := synthesizeSequence(t, stroke.Sequence{stroke.S2, stroke.S3}, 9)
	for i := 0; i < 2; i++ {
		id, err := sm.Open()
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, sm, id, sig.Samples)
		if _, _, err := sm.Flush(id); err != nil {
			t.Fatal(err)
		}
	}

	status, _, body := scrape(t, ts.URL, "/metricsz")
	if status != http.StatusOK {
		t.Fatalf("/metricsz status = %d", status)
	}
	fams, err := expose.Parse(strings.NewReader(body))
	if err != nil {
		t.Fatalf("strict parse: %v", err)
	}
	byName := make(map[string]*expose.Family, len(fams))
	for i := range fams {
		byName[fams[i].Name] = &fams[i]
	}

	st := sm.Snapshot()
	sumShards := func(family string) float64 {
		f := byName[family]
		if f == nil {
			t.Fatalf("family %s missing from exposition", family)
		}
		if len(f.Samples) != sm.NumShards() {
			t.Errorf("family %s has %d samples, want one per shard (%d)", family, len(f.Samples), sm.NumShards())
		}
		total := 0.0
		for _, s := range f.Samples {
			total += s.Value
		}
		return total
	}
	for _, c := range []struct {
		family string
		want   float64
	}{
		{"echowrite_active_sessions", float64(st.ActiveSessions)},
		{"echowrite_queue_len", float64(st.QueueLen)},
		{"echowrite_queue_cap", float64(st.QueueCap)},
		{"echowrite_chunks_total", float64(st.Chunks)},
		{"echowrite_detections_total", float64(st.Detections)},
		{"echowrite_backpressure_rejects_total", float64(st.Backpressure)},
		{"echowrite_idle_evictions_total", float64(st.Evictions)},
	} {
		if got := sumShards(c.family); got != c.want {
			t.Errorf("%s summed over shards = %g, /statsz says %g", c.family, got, c.want)
		}
	}
	if st.Chunks == 0 || st.Detections == 0 {
		t.Fatalf("smoke drove no traffic (chunks=%d detections=%d); test premise broken", st.Chunks, st.Detections)
	}

	single := func(family string) float64 {
		f := byName[family]
		if f == nil {
			t.Fatalf("family %s missing from exposition", family)
		}
		if len(f.Samples) != 1 {
			t.Fatalf("family %s has %d samples, want 1", family, len(f.Samples))
		}
		return f.Samples[0].Value
	}
	if got := single("echowrite_max_sessions"); got != float64(st.MaxSessions) {
		t.Errorf("max_sessions = %g, /statsz says %d", got, st.MaxSessions)
	}
	if got := single("echowrite_workers"); got != float64(st.Workers) {
		t.Errorf("workers = %g, /statsz says %d", got, st.Workers)
	}
	if got := single("echowrite_engine_pool_created_total"); got != float64(st.Pool.Created) {
		t.Errorf("pool created = %g, /statsz says %d", got, st.Pool.Created)
	}
	if got := single("echowrite_engine_pool_reused_total"); got != float64(st.Pool.Reused) {
		t.Errorf("pool reused = %g, /statsz says %d", got, st.Pool.Reused)
	}
	// /statsz per-stroke means divide the stage totals by every detection.
	if got := sumShards("echowrite_detections_total"); float64(st.PerStroke.Strokes) != got {
		t.Errorf("per_stroke_ms.strokes = %d, summed detections_total = %g", st.PerStroke.Strokes, got)
	}

	// The per-stage counters must cover the same stages /statsz reports.
	stages := byName["echowrite_stage_seconds_total"]
	if stages == nil {
		t.Fatal("echowrite_stage_seconds_total missing")
	}
	for _, stage := range []string{"stft", "enhancement", "profile", "segmentation", "dtw"} {
		if stages.Sample("echowrite_stage_seconds_total", expose.Label{Name: "stage", Value: stage}) == nil {
			t.Errorf("stage %s missing from echowrite_stage_seconds_total", stage)
		}
	}

	// Every processed chunk records one histogram observation, per shard.
	hist := byName["echowrite_feed_latency_milliseconds"]
	if hist == nil {
		t.Fatal("feed-latency histogram missing")
	}
	var histCount float64
	for shard := 0; shard < sm.NumShards(); shard++ {
		s := hist.Sample("echowrite_feed_latency_milliseconds_count",
			expose.Label{Name: "shard", Value: strconv.Itoa(shard)})
		if s == nil {
			t.Fatalf("histogram _count missing for shard %d", shard)
		}
		histCount += s.Value
	}
	if histCount != float64(st.Chunks) {
		t.Errorf("histogram observations = %g, chunks processed = %d", histCount, st.Chunks)
	}

	// /statsz and /metricsz are one latency store: summing the scraped
	// per-shard buckets and interpolating them must reproduce the /statsz
	// quantiles exactly.
	cum := map[float64]uint64{}
	for _, s := range hist.Samples {
		if s.Name != "echowrite_feed_latency_milliseconds_bucket" {
			continue
		}
		for _, l := range s.Labels {
			if l.Name == "le" && l.Value != "+Inf" {
				bound, err := strconv.ParseFloat(l.Value, 64)
				if err != nil {
					t.Fatal(err)
				}
				cum[bound] += uint64(s.Value)
			}
		}
	}
	merged := expose.HistView{Count: uint64(histCount)}
	for bound := range cum {
		merged.UpperBounds = append(merged.UpperBounds, bound)
	}
	sort.Float64s(merged.UpperBounds)
	for _, bound := range merged.UpperBounds {
		merged.Cumulative = append(merged.Cumulative, cum[bound])
	}
	want := metrics.LatencySummary{P50: merged.Quantile(0.50), P95: merged.Quantile(0.95), P99: merged.Quantile(0.99)}
	_, _, statsz := scrape(t, ts.URL, "/statsz")
	var served Stats
	if err := json.Unmarshal([]byte(statsz), &served); err != nil {
		t.Fatalf("/statsz: %v", err)
	}
	if served.FeedLatencyMs != want || want.P50 <= 0 {
		t.Errorf("/statsz feed_latency_ms = %+v, recomputed from /metricsz buckets = %+v",
			served.FeedLatencyMs, want)
	}
}

// TestMetricszQuietSessionStageTime pins that stage time is every
// feed's time: a session that detects nothing and is then closed must
// still leave its STFT and enhancement cost on /metricsz.
func TestMetricszQuietSessionStageTime(t *testing.T) {
	leak.Check(t)
	sm, err := NewShardedManager(Config{MaxSessions: 2, Workers: 1, Prewarm: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()
	ts := httptest.NewServer(NewServer(sm).Handler())
	defer ts.Close()

	id, err := sm.Open()
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, sm, id, make([]float64, 2*44100)) // 2 s of silence
	if err := sm.Close(id); err != nil {
		t.Fatal(err)
	}
	if st := sm.Snapshot(); st.Detections != 0 || st.Chunks == 0 {
		t.Fatalf("chunks=%d detections=%d, want a quiet session that fed audio", st.Chunks, st.Detections)
	}

	_, _, body := scrape(t, ts.URL, "/metricsz")
	fams, err := expose.Parse(strings.NewReader(body))
	if err != nil {
		t.Fatalf("strict parse: %v", err)
	}
	var stages *expose.Family
	for i := range fams {
		if fams[i].Name == "echowrite_stage_seconds_total" {
			stages = &fams[i]
		}
	}
	if stages == nil {
		t.Fatal("echowrite_stage_seconds_total missing")
	}
	for _, stage := range []string{"stft", "enhancement"} {
		s := stages.Sample("echowrite_stage_seconds_total", expose.Label{Name: "stage", Value: stage})
		if s == nil {
			t.Errorf("stage %s missing", stage)
		} else if s.Value <= 0 {
			t.Errorf("stage %s seconds = %g after a quiet session, want > 0", stage, s.Value)
		}
	}
}

// feedAll streams samples through Feed in pipeline-sized chunks,
// retrying on backpressure (the queue is sized to make that rare).
func feedAll(t *testing.T, svc Service, id string, samples []float64) {
	t.Helper()
	const chunk = 4096
	for off := 0; off < len(samples); off += chunk {
		end := min(off+chunk, len(samples))
		for {
			_, err := svc.Feed(id, samples[off:end])
			if err == nil {
				break
			}
			if !errors.Is(err, ErrBackpressure) {
				t.Fatal(err)
			}
		}
	}
}

// onlyService hides the manager's metrics surface, modeling an embedder
// that wraps the Service interface with middleware.
type onlyService struct{ s Service }

func (o onlyService) Open() (string, error) { return o.s.Open() }
func (o onlyService) Feed(id string, chunk []float64) ([]pipeline.Detection, error) {
	return o.s.Feed(id, chunk)
}
func (o onlyService) Flush(id string) ([]pipeline.Detection, []infer.Candidate, error) {
	return o.s.Flush(id)
}
func (o onlyService) Close(id string) error { return o.s.Close(id) }
func (o onlyService) Touch(id string) error { return o.s.Touch(id) }
func (o onlyService) EvictIdle() int        { return o.s.EvictIdle() }
func (o onlyService) Snapshot() Stats       { return o.s.Snapshot() }
func (o onlyService) MaxChunk() int         { return o.s.MaxChunk() }
func (o onlyService) Shutdown()             { o.s.Shutdown() }

// TestMetricszForeignService checks the documented fallback: a Service
// that neither is nor embeds a *ShardedManager still serves /statsz but
// 404s /metricsz instead of exposing a half-built registry.
func TestMetricszForeignService(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{MaxSessions: 2, Workers: 1, Prewarm: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(onlyService{s: mgr}).Handler())
	defer ts.Close()
	if status, _, _ := scrape(t, ts.URL, "/metricsz"); status != http.StatusNotFound {
		t.Errorf("/metricsz on foreign service = %d, want 404", status)
	}
	if status, _, _ := scrape(t, ts.URL, "/statsz"); status != http.StatusOK {
		t.Errorf("/statsz on foreign service = %d, want 200", status)
	}
}
