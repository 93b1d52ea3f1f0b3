package stress

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/audio"
	"repro/internal/capture"
	"repro/internal/participant"
	"repro/internal/serve"
	"repro/internal/stroke"

	"repro/internal/testutil/leak"
)

// synthWords renders n distinct recordings the way cmd/ewload does.
func synthWords(t *testing.T, words []string, seed uint64) []*audio.Signal {
	t.Helper()
	roster := participant.SixParticipants()
	out := make([]*audio.Signal, len(words))
	for i, w := range words {
		sess := participant.NewSession(roster[i%len(roster)], seed+uint64(i))
		rec, err := capture.PerformWord(sess, stroke.DefaultScheme(), w,
			acoustic.Mate9(), acoustic.StandardEnvironment(acoustic.MeetingRoom),
			seed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rec.Signal
	}
	return out
}

// feedAll streams one signal into a session with the given chunk size,
// retrying on backpressure so the audio stays contiguous, and returns
// the stroke sequence the service emitted.
func feedAll(svc serve.Service, id string, sig *audio.Signal, chunk int) (stroke.Sequence, error) {
	var got stroke.Sequence
	for off := 0; off < len(sig.Samples); off += chunk {
		end := min(off+chunk, len(sig.Samples))
		for {
			dets, err := svc.Feed(id, sig.Samples[off:end])
			if errors.Is(err, serve.ErrBackpressure) {
				continue
			}
			if err != nil {
				return nil, err
			}
			for _, d := range dets {
				got = append(got, d.Stroke)
			}
			break
		}
	}
	for {
		dets, _, err := svc.Flush(id)
		if errors.Is(err, serve.ErrBackpressure) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, d := range dets {
			got = append(got, d.Stroke)
		}
		return got, nil
	}
}

// TestShardedEquivalentToSingleShard is the tentpole's determinism
// guarantee: for the same per-session audio, a hash-sharded manager
// driven by concurrent clients produces exactly the stroke outputs a
// single-shard manager produces sequentially — sharding, queue order and
// goroutine interleaving must never leak into recognition results.
func TestShardedEquivalentToSingleShard(t *testing.T) {
	leak.Check(t)
	words := []string{"on", "to", "it"}
	signals := synthWords(t, words, 31)

	sessions := scale(12, 48)
	// Per-session chunk sizes vary, so each run covers several distinct
	// interleavings of frame completion against the shared queues.
	chunkOf := func(i int) int { return []int{2048, 4096, 8192, 3001}[i%4] }

	// Single-shard reference, fed sequentially.
	single, err := serve.NewShardedManager(serve.Config{
		MaxSessions: sessions, Workers: 2, QueueDepth: 64, Prewarm: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown()
	want := make([]stroke.Sequence, sessions)
	for i := 0; i < sessions; i++ {
		id, err := single.Open()
		if err != nil {
			t.Fatal(err)
		}
		seq, err := feedAll(single, id, signals[i%len(signals)], chunkOf(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) == 0 {
			t.Fatalf("reference session %d produced no strokes; premise broken", i)
		}
		want[i] = seq
		if err := single.Close(id); err != nil {
			t.Fatal(err)
		}
	}

	// Sharded, all sessions concurrent.
	sm, err := serve.NewShardedManager(serve.Config{
		MaxSessions: sessions, Workers: 8, QueueDepth: 64, Prewarm: 4,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()

	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := sm.Open()
			if err != nil {
				errCh <- err
				return
			}
			defer sm.Close(id)
			got, err := feedAll(sm, id, signals[i%len(signals)], chunkOf(i))
			if err != nil {
				errCh <- err
				return
			}
			if !got.Equal(want[i]) {
				errCh <- errors.New("session " + id + ": sharded " + got.String() +
					", single-shard " + want[i].String())
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := sm.Snapshot()
	if st.ActiveSessions != 0 {
		t.Errorf("sessions left open: %d", st.ActiveSessions)
	}
	var wantDets int
	for i := 0; i < sessions; i++ {
		wantDets += len(want[i])
	}
	if st.Detections != uint64(wantDets) {
		t.Errorf("aggregate detections = %d, want %d", st.Detections, wantDets)
	}
}
