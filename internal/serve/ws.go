package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
	"repro/internal/ws"
)

// The /v1/stream wire protocol — the persistent duplex alternative to
// the per-chunk POST round trip:
//
//	GET /v1/stream[?session=ID]   WebSocket upgrade. Without a session
//	                              parameter a new session is opened and
//	                              owned by the connection (closed when
//	                              the connection ends); with one, the
//	                              connection attaches to the existing
//	                              session and leaves it open on
//	                              disconnect.
//
// Client → server frames:
//
//	binary                        one audio chunk (16-bit LE mono PCM,
//	                              same format as POST /audio)
//	text {"cmd":"flush"}          drain the partial frame and emit word
//	                              candidates
//	text {"cmd":"close"}          close the session, then the connection
//
// Server → client frames are text JSON StreamEvents. Every audio chunk
// and flush is acknowledged by exactly one "detection" event carrying
// the input's sequence number (binary chunks and flushes share one
// counter), so detections stream incrementally and a client can measure
// per-chunk round trips; a flush additionally produces a "candidates"
// event. A full ingest queue emits a "backpressure" event while the
// server keeps retrying the same chunk — frames are never dropped — and
// "error" reports per-input failures (oversized or malformed chunks)
// or terminal ones (unknown session).
const (
	// wsKeepaliveDefault paces server pings; each tick also refreshes
	// the session's idle clock, so an open stream is never evicted.
	wsKeepaliveDefault = 30 * time.Second
	// wsOutboundDepth bounds the per-connection write pump's queue.
	wsOutboundDepth = 64
	// wsWriteTimeout bounds one frame write to a (possibly dead) peer.
	wsWriteTimeout = 10 * time.Second
	// wsBackpressureDelay is the pause between server-side retries of a
	// chunk rejected by a full shard queue (mirrors cmd/ewload's retry
	// delay on 429).
	wsBackpressureDelay = 2 * time.Millisecond
	// wsBackpressureRetries bounds those retries before the chunk is
	// reported failed.
	wsBackpressureRetries = 400
	// wsCloseTimeout bounds the closing handshake drain.
	wsCloseTimeout = 2 * time.Second
)

// Stream event types.
const (
	StreamEventReady        = "ready"
	StreamEventDetection    = "detection"
	StreamEventCandidates   = "candidates"
	StreamEventBackpressure = "backpressure"
	StreamEventError        = "error"
)

// StreamEvent is one server→client message on the /v1/stream
// WebSocket. Type selects which fields are meaningful; Seq ties
// detection/candidates/backpressure/error events back to the input
// (chunk or flush) that produced them.
type StreamEvent struct {
	Type       string          `json:"type"`
	Session    string          `json:"session,omitempty"`
	Seq        uint64          `json:"seq,omitempty"`
	Detections []DetectionJSON `json:"detections,omitempty"`
	Words      []CandidateJSON `json:"words,omitempty"`
	Error      string          `json:"error,omitempty"`
	RetryMs    int             `json:"retry_ms,omitempty"`
}

// streamCommand is one client→server text frame.
type streamCommand struct {
	Cmd string `json:"cmd"`
}

// wsPushLatencyBuckets are the upper bounds (milliseconds) of the
// push-latency histogram: octaves from 50 µs, so the healthy
// enqueue-to-wire path (tens of microseconds) and a slow-client stall
// both land in informative buckets.
var wsPushLatencyBuckets = mustExpBuckets(0.05, 2, 12)

// wsStats is the /metricsz surface of the streaming subsystem.
type wsStats struct {
	connections atomic.Int64  // currently open stream connections
	framesIn    atomic.Uint64 // client frames received (chunks + commands)
	framesOut   atomic.Uint64 // event frames pushed
	pushLat     *expose.Histogram
}

func newWSStats() *wsStats {
	hist, err := expose.NewHistogram(wsPushLatencyBuckets)
	if err != nil {
		panic(err) // static bucket layout; failure is a programming bug
	}
	return &wsStats{pushLat: hist}
}

// wsOut is one queued outbound event: the encoded frame plus its
// enqueue time, so the pump can observe queue-to-wire push latency.
type wsOut struct {
	data []byte
	t    time.Time
}

// wsPump serializes all event writes for one connection through a
// bounded queue drained by a single goroutine, so the read loop never
// blocks on a slow peer's TCP window and events stay ordered.
type wsPump struct {
	conn  *ws.Conn
	stats *wsStats
	ch    chan wsOut
	done  chan struct{}
}

func newWSPump(conn *ws.Conn, stats *wsStats) *wsPump {
	p := &wsPump{
		conn:  conn,
		stats: stats,
		ch:    make(chan wsOut, wsOutboundDepth),
		done:  make(chan struct{}),
	}
	go p.run()
	return p
}

// run drains the queue until close(). On a write failure it tears down
// the connection (waking the read loop) and keeps draining so senders
// can never block on a dead pump.
func (p *wsPump) run() {
	defer close(p.done)
	failed := false
	for out := range p.ch {
		if failed {
			continue
		}
		_ = p.conn.SetWriteDeadline(time.Now().Add(wsWriteTimeout))
		if err := p.conn.WriteMessage(ws.Text, out.data); err != nil {
			// An event racing the close frame out the door is benign —
			// the peer asked to close; don't tear the handshake down.
			if !errors.Is(err, ws.ErrCloseSent) {
				failed = true
				p.conn.Close()
			}
			continue
		}
		p.stats.framesOut.Add(1)
		p.stats.pushLat.Observe(float64(time.Since(out.t)) / float64(time.Millisecond))
	}
}

// send encodes and enqueues one event. It may block briefly when the
// queue is full; the pump drains unconditionally, so it never blocks
// for good.
func (p *wsPump) send(ev StreamEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		return // event structs marshal by construction
	}
	p.ch <- wsOut{data: data, t: time.Now()}
}

// close flushes the queue and stops the pump goroutine.
func (p *wsPump) close() {
	close(p.ch)
	<-p.done
}

// handleStream is GET /v1/stream: upgrade, resolve the session, then
// pump events out while the read loop feeds chunks and commands in.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	conn, err := ws.Accept(w, r)
	if err != nil {
		return // Accept already wrote the HTTP error
	}
	defer conn.Close()
	conn.MaxPayload = 2*int64(s.mgr.MaxChunk()) + 1024 // PCM bytes per chunk, plus command slack

	s.ws.connections.Add(1)
	defer s.ws.connections.Add(-1)

	opened := false
	if id == "" {
		id, err = s.mgr.Open()
		if err != nil {
			s.rejectStream(conn, err)
			return
		}
		opened = true
	} else if err := s.mgr.Touch(id); err != nil {
		s.rejectStream(conn, err)
		return
	}
	// From here the session must not leak: every return path closes it
	// if this connection opened it.
	defer func() {
		if opened {
			_ = s.mgr.Close(id)
		}
	}()

	pump := newWSPump(conn, s.ws)
	defer pump.close()

	stop := make(chan struct{})
	defer close(stop)
	go s.wsKeepaliveLoop(conn, id, stop)

	pump.send(StreamEvent{Type: StreamEventReady, Session: id})
	var seq uint64
	for {
		typ, data, err := conn.ReadMessage()
		if err != nil {
			return // peer closed (CloseError), vanished, or misbehaved
		}
		s.ws.framesIn.Add(1)
		_ = s.mgr.Touch(id)
		switch typ {
		case ws.Binary:
			seq++
			if terminal := s.streamFeed(pump, id, seq, data); terminal {
				conn.WriteClose(ws.StatusPolicyViolation, "session gone")
				return
			}
		case ws.Text:
			var cmd streamCommand
			if err := json.Unmarshal(data, &cmd); err != nil {
				pump.send(StreamEvent{Type: StreamEventError, Error: "malformed command: " + err.Error()})
				continue
			}
			switch cmd.Cmd {
			case "flush":
				seq++
				if terminal := s.streamFlush(pump, id, seq); terminal {
					conn.WriteClose(ws.StatusPolicyViolation, "session gone")
					return
				}
			case "close":
				if err := s.mgr.Close(id); err == nil {
					opened = false // already closed; the defer must not double-close
				}
				// Finish the handshake: send close, then keep reading
				// until the peer's reply surfaces as a CloseError.
				conn.WriteClose(ws.StatusNormalClosure, "")
			default:
				pump.send(StreamEvent{Type: StreamEventError, Error: "unknown command " + cmd.Cmd})
			}
		}
	}
}

// rejectStream reports a pre-stream failure (open or attach) on a
// connection that has no pump yet, then closes with a policy code.
func (s *Server) rejectStream(conn *ws.Conn, err error) {
	data, merr := json.Marshal(StreamEvent{Type: StreamEventError, Error: err.Error()})
	if merr == nil {
		_ = conn.SetWriteDeadline(time.Now().Add(wsWriteTimeout))
		_ = conn.WriteMessage(ws.Text, data)
		s.ws.framesOut.Add(1)
	}
	_ = conn.CloseHandshake(ws.StatusPolicyViolation, err.Error(), wsCloseTimeout)
}

// wsKeepaliveLoop pings the peer and refreshes the session's idle
// clock until stop closes. Write failures are ignored: the read loop
// observes the dead connection and tears everything down.
func (s *Server) wsKeepaliveLoop(conn *ws.Conn, id string, stop <-chan struct{}) {
	interval := s.wsKeepalive
	if interval <= 0 {
		interval = wsKeepaliveDefault
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = conn.SetWriteDeadline(time.Now().Add(wsWriteTimeout))
			_ = conn.WritePing(nil)
			_ = s.mgr.Touch(id)
		case <-stop:
			return
		}
	}
}

// streamFeed decodes and feeds one binary chunk, retrying through
// shard backpressure so the audio stays contiguous — a full queue
// surfaces to the client as a backpressure event, never a dropped
// frame. Exactly one detection (or error) event with this seq is
// emitted. The return value reports terminal session errors.
func (s *Server) streamFeed(pump *wsPump, id string, seq uint64, body []byte) bool {
	chunk, err := decodePCM16(body, int64(2*s.mgr.MaxChunk()))
	if err != nil {
		pump.send(StreamEvent{Type: StreamEventError, Seq: seq, Error: err.Error()})
		return false
	}
	dets, err := s.streamSubmit(pump, seq, func() ([]pipeline.Detection, error) {
		return s.mgr.Feed(id, chunk)
	})
	if err != nil {
		pump.send(StreamEvent{Type: StreamEventError, Seq: seq, Error: err.Error()})
		return errors.Is(err, ErrUnknownSession) || errors.Is(err, ErrClosed)
	}
	pump.send(StreamEvent{Type: StreamEventDetection, Seq: seq, Detections: detectionsJSON(dets)})
	return false
}

// streamFlush drains the session and emits the detection event plus a
// candidates event (always, even when empty, so clients have a
// definite end-of-flush marker).
func (s *Server) streamFlush(pump *wsPump, id string, seq uint64) bool {
	var cands []infer.Candidate
	dets, err := s.streamSubmit(pump, seq, func() ([]pipeline.Detection, error) {
		var ferr error
		dets, cs, ferr := s.mgr.Flush(id)
		cands = cs
		return dets, ferr
	})
	if err != nil {
		pump.send(StreamEvent{Type: StreamEventError, Seq: seq, Error: err.Error()})
		return errors.Is(err, ErrUnknownSession) || errors.Is(err, ErrClosed)
	}
	pump.send(StreamEvent{Type: StreamEventDetection, Seq: seq, Detections: detectionsJSON(dets)})
	pump.send(StreamEvent{Type: StreamEventCandidates, Seq: seq, Words: candidatesJSON(cands)})
	return false
}

// streamSubmit runs one ingest operation with bounded backpressure
// retries, emitting a single backpressure event on the first
// rejection.
func (s *Server) streamSubmit(pump *wsPump, seq uint64, op func() ([]pipeline.Detection, error)) ([]pipeline.Detection, error) {
	for attempt := 0; ; attempt++ {
		dets, err := op()
		if !errors.Is(err, ErrBackpressure) {
			return dets, err
		}
		if attempt == 0 {
			pump.send(StreamEvent{
				Type:    StreamEventBackpressure,
				Seq:     seq,
				RetryMs: int(wsBackpressureDelay / time.Millisecond),
			})
		}
		if attempt >= wsBackpressureRetries {
			return nil, err
		}
		time.Sleep(wsBackpressureDelay)
	}
}
