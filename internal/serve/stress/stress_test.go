// Package stress is the adversarial test layer for the sharded serving
// stack: a race-enabled concurrent stress test with fault injection, a
// deterministic sharded-vs-single equivalence test, and shard
// routing/eviction/backpressure invariant tests.
//
// The suite has two gears: the default parameters keep `go test -race`
// inside the tier-1 budget; setting EW_STRESS=long (what `make stress`
// does) multiplies the goroutine and iteration counts for a sustained
// soak.
package stress

import (
	"errors"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/serve"

	"repro/internal/testutil/leak"
)

// scale returns short unless EW_STRESS=long, in which case long.
func scale(short, long int) int {
	if os.Getenv("EW_STRESS") == "long" {
		return long
	}
	return short
}

// TestStressShardedManagerUnderFire hammers one ShardedManager from
// hundreds of goroutines that open, feed, flush, close, double-close and
// misuse sessions while eviction sweeps and snapshots run concurrently.
// A fault-injection hook stalls ~1 % of jobs at the worker boundary to
// shake interleavings. The test passes when only documented error types
// surface and the final aggregate counters reconcile exactly with what
// the clients observed.
func TestStressShardedManagerUnderFire(t *testing.T) {
	leak.Check(t)
	var (
		writers = scale(48, 384)
		opsEach = scale(30, 200)
		shards  = 4
	)

	var hookRng sync.Mutex
	faultRng := rand.New(rand.NewSource(42))
	sm, err := serve.NewShardedManager(serve.Config{
		MaxSessions: writers, // headroom: sessions are short-lived
		Workers:     4 * shards,
		QueueDepth:  8 * shards,
		Prewarm:     shards,
		MaxChunk:    8192,
		JobStartHook: func(string) {
			hookRng.Lock()
			stall := faultRng.Intn(100) == 0
			hookRng.Unlock()
			if stall {
				runtime.Gosched() // fault point: yield mid-queue-drain
			}
		},
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()

	var (
		okFeeds    atomic.Uint64 // successful Feed jobs
		okFlushes  atomic.Uint64 // successful Flush jobs
		detections atomic.Uint64
		rejected   atomic.Uint64 // ErrBackpressure observed by clients
		unexpected = make(chan error, writers)
	)

	// A background antagonist: eviction sweeps and snapshot reads race
	// the writers (eviction finds nothing — no fake clock — but takes
	// every table lock; Snapshot walks all shards).
	stop := make(chan struct{})
	var antagonist sync.WaitGroup
	antagonist.Add(1)
	go func() {
		defer antagonist.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sm.EvictIdle()
				_ = sm.Snapshot()
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			chunk := make([]float64, 512)
			for i := range chunk {
				chunk[i] = rng.Float64()*2 - 1
			}
			for op := 0; op < opsEach; op++ {
				id, err := sm.Open()
				if err != nil {
					if errors.Is(err, serve.ErrSessionLimit) {
						continue // legitimate under full table
					}
					unexpected <- err
					return
				}
				feeds := 1 + rng.Intn(4)
				for f := 0; f < feeds; f++ {
					var dets []pipeline.Detection
					var err error
					switch rng.Intn(8) {
					case 0: // fault point: oversized chunk must bounce cleanly
						// The size cap is enforced by the worker, so a full
						// ingest queue legitimately refuses the job first;
						// retry until it is admitted and the cap fires.
						big := make([]float64, 16384)
						for {
							_, err = sm.Feed(id, big)
							if !errors.Is(err, serve.ErrBackpressure) {
								break
							}
							rejected.Add(1)
							runtime.Gosched()
						}
						if !errors.Is(err, pipeline.ErrOversizedChunk) {
							unexpected <- errors.New("oversized feed not rejected: " + errString(err))
							return
						}
						continue
					case 1: // fault point: empty chunk is legal
						dets, err = sm.Feed(id, nil)
					default:
						dets, err = sm.Feed(id, chunk)
					}
					switch {
					case err == nil:
						okFeeds.Add(1)
						detections.Add(uint64(len(dets)))
					case errors.Is(err, serve.ErrBackpressure):
						rejected.Add(1)
					default:
						unexpected <- err
						return
					}
				}
				if rng.Intn(3) == 0 {
					dets, _, err := sm.Flush(id)
					switch {
					case err == nil:
						okFlushes.Add(1)
						detections.Add(uint64(len(dets)))
					case errors.Is(err, serve.ErrBackpressure):
						rejected.Add(1)
					default:
						unexpected <- err
						return
					}
				}
				if err := sm.Close(id); err != nil {
					unexpected <- err
					return
				}
				// Fault points: use-after-close and double-close must be
				// deterministic typed errors, never a wedge or panic.
				if _, err := sm.Feed(id, chunk); !errors.Is(err, serve.ErrUnknownSession) {
					unexpected <- errors.New("feed after close: " + errString(err))
					return
				}
				if err := sm.Close(id); !errors.Is(err, serve.ErrUnknownSession) {
					unexpected <- errors.New("double close: " + errString(err))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	antagonist.Wait()
	close(unexpected)
	for err := range unexpected {
		t.Error(err)
	}

	st := sm.Snapshot()
	if st.ActiveSessions != 0 {
		t.Errorf("sessions leaked: %d active after all closed", st.ActiveSessions)
	}
	// Every successful job the clients saw is in the chunk counter, and
	// nothing else (chunks counts Feed and Flush jobs alike).
	if want := okFeeds.Load() + okFlushes.Load(); st.Chunks != want {
		t.Errorf("chunks processed = %d, want %d (feeds %d + flushes %d)",
			st.Chunks, want, okFeeds.Load(), okFlushes.Load())
	}
	if st.Detections != detections.Load() {
		t.Errorf("detections = %d, clients observed %d", st.Detections, detections.Load())
	}
	if st.Backpressure != rejected.Load() {
		t.Errorf("backpressure rejects = %d, clients observed %d", st.Backpressure, rejected.Load())
	}
	var shardChunks uint64
	for _, sh := range st.Shards {
		shardChunks += sh.Chunks
	}
	if shardChunks != st.Chunks {
		t.Errorf("per-shard chunks sum %d != aggregate %d", shardChunks, st.Chunks)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
