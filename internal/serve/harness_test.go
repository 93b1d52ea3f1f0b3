package serve

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/testutil/leak"
)

// TestRunLoadInProcess exercises the whole serving stack the way
// cmd/ewload does: concurrent writers over HTTP against an in-process
// server, aggregated into a throughput/latency report.
func TestRunLoadInProcess(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{MaxSessions: 8, Workers: 2, QueueDepth: 16, Prewarm: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	report, err := RunLoad(LoadConfig{
		BaseURL:      ts.URL,
		Writers:      4,
		Signals:      1,
		Word:         "on",
		ChunkSamples: 8192,
		Seed:         7,
		Client:       ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)

	if report.Errors != 0 {
		t.Errorf("load run hit %d errors", report.Errors)
	}
	if report.ChunksSent == 0 || report.AudioSeconds <= 0 {
		t.Errorf("no traffic recorded: %+v", report)
	}
	// Every writer writes a real word, so strokes must be detected and
	// the latency quantiles populated and ordered.
	if report.Detections == 0 {
		t.Error("no detections under load")
	}
	c := report.ChunkLatencyMs
	if !(c.P50 > 0 && c.P50 <= c.P95 && c.P95 <= c.P99) {
		t.Errorf("chunk latency quantiles unordered: %+v", c)
	}
	s := report.StrokeLatencyMs
	if !(s.P50 > 0 && s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Errorf("stroke latency quantiles unordered: %+v", s)
	}
	if report.RealTimeFactor() <= 0 {
		t.Errorf("real-time factor = %g", report.RealTimeFactor())
	}

	// The server side saw the same traffic.
	st := mgr.Snapshot()
	if st.Chunks == 0 || st.ActiveSessions != 0 {
		t.Errorf("server snapshot %+v after load", st)
	}
	if report.Sessions != 4 {
		t.Errorf("single-pass run completed %d sessions, want one per writer", report.Sessions)
	}
}

// TestRunLoadReplaySoak drives the scenario-replay path: pre-recorded
// traces instead of synthesis, looped until a soak deadline. The replay
// must send exactly the recording's bytes (chunk math below) and the
// soak must complete more sessions than writers.
func TestRunLoadReplaySoak(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{MaxSessions: 8, Workers: 2, QueueDepth: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	// A short recording (quarter second) so each session pass is quick.
	rec := &audio.Signal{Rate: 44100, Samples: make([]float64, 11025)}
	for i := range rec.Samples {
		rec.Samples[i] = 0.1 * math.Sin(2*math.Pi*20000*float64(i)/44100)
	}
	report, err := RunLoad(LoadConfig{
		BaseURL:      ts.URL,
		Writers:      2,
		ChunkSamples: 4096,
		Client:       ts.Client(),
		Recordings:   []*audio.Signal{rec},
		Duration:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)
	if report.Errors != 0 {
		t.Errorf("soak hit %d errors", report.Errors)
	}
	if report.Sessions <= report.Writers {
		t.Errorf("soak completed %d sessions over %d writers; deadline loop never looped", report.Sessions, report.Writers)
	}
	chunksPerPass := (len(rec.Samples) + 4095) / 4096
	if report.ChunksSent != report.Sessions*chunksPerPass {
		t.Errorf("chunks sent %d, want %d sessions × %d chunks: replay did not send the recording verbatim",
			report.ChunksSent, report.Sessions, chunksPerPass)
	}
	if got, want := report.AudioSeconds, float64(report.Sessions)*rec.Duration(); math.Abs(got-want) > 1e-9 {
		t.Errorf("audio seconds %g, want %g", got, want)
	}
}
