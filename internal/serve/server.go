package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
)

// Server is the chunked-ingest HTTP front end. Wire protocol:
//
//	POST   /v1/sessions            → {"session":"s00000001"}
//	POST   /v1/sessions/{id}/audio → body: 16-bit little-endian mono PCM
//	                                 at the engine's sample rate;
//	                                 response: completed detections
//	POST   /v1/sessions/{id}/flush → drains the partial frame; response
//	                                 adds word candidates for the
//	                                 accumulated stroke sequence
//	DELETE /v1/sessions/{id}       → close the session
//	GET    /statsz                 → Stats snapshot (JSON)
//	GET    /metricsz               → Prometheus text exposition
//	                                 (text/plain; version=0.0.4)
//
// Backpressure surfaces as 429 (retry the same chunk), an oversized
// chunk as 413, an unknown/evicted session as 404, and a full session
// table as 503.
type Server struct {
	mgr Service
	mux *http.ServeMux
	// reg is the /metricsz registry; nil when mgr is a foreign Service
	// implementation that does not expose the internal metrics surface.
	reg *expose.Registry
	// ws aggregates the streaming subsystem's metrics (see ws.go).
	ws *wsStats
	// wsKeepalive overrides the stream ping/touch interval; zero means
	// wsKeepaliveDefault. Tests shrink it to exercise the keepalive path.
	wsKeepalive time.Duration
}

// Service is the session-manager surface the HTTP front end drives.
// *ShardedManager implements it; embedders can wrap it with their own
// middleware.
type Service interface {
	Open() (string, error)
	Feed(id string, chunk []float64) ([]pipeline.Detection, error)
	Flush(id string) ([]pipeline.Detection, []infer.Candidate, error)
	Close(id string) error
	// Touch refreshes a session's idle clock without submitting work;
	// the stream handler calls it so a live connection counts as
	// activity for EvictIdle, and to validate attach targets.
	Touch(id string) error
	EvictIdle() int
	Snapshot() Stats
	MaxChunk() int
	Shutdown()
}

var _ Service = (*ShardedManager)(nil)

// NewServer wires the routes around an existing service. /metricsz
// renders the Prometheus exposition when mgr is a *ShardedManager (or
// embeds one); a foreign Service gets the JSON /statsz only and 404 on
// /metricsz.
func NewServer(mgr Service) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), ws: newWSStats()}
	if ms, ok := mgr.(metricsSource); ok {
		s.reg = newServiceRegistry(ms.serviceShards())
		registerWSMetrics(s.reg, s.ws)
	}
	s.mux.HandleFunc("POST /v1/sessions", s.handleOpen)
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/sessions/{id}/audio", s.handleAudio)
	s.mux.HandleFunc("POST /v1/sessions/{id}/flush", s.handleFlush)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleClose)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return s
}

// Handler returns the route table for use with http.Server or tests.
func (s *Server) Handler() http.Handler { return s.mux }

// RunEvictor loops idle-session eviction every interval until stop is
// closed. cmd/ewserve runs it next to ListenAndServe.
func (s *Server) RunEvictor(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mgr.EvictIdle()
		case <-stop:
			return
		}
	}
}

// DetectionJSON is one recognized stroke on the wire. Frame indices are
// absolute from session start at the engine's hop rate.
type DetectionJSON struct {
	Stroke       string `json:"stroke"`
	StartFrame   int    `json:"start_frame"`
	EndFrame     int    `json:"end_frame"`
	Contaminated bool   `json:"contaminated,omitempty"`
}

// CandidateJSON is one scored word suggestion on the wire.
type CandidateJSON struct {
	Word      string  `json:"word"`
	Score     float64 `json:"score"`
	Corrected bool    `json:"corrected,omitempty"`
}

type openResponse struct {
	Session string `json:"session"`
}

type audioResponse struct {
	Session    string          `json:"session"`
	Detections []DetectionJSON `json:"detections"`
}

type flushResponse struct {
	Session    string          `json:"session"`
	Detections []DetectionJSON `json:"detections"`
	Words      []CandidateJSON `json:"words"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	id, err := s.mgr.Open()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, openResponse{Session: id})
}

func (s *Server) handleAudio(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	chunk, err := readPCM16(w, r, s.maxBodyBytes())
	if err != nil {
		writeError(w, err)
		return
	}
	dets, err := s.mgr.Feed(id, chunk)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, audioResponse{Session: id, Detections: detectionsJSON(dets)})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	dets, cands, err := s.mgr.Flush(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, flushResponse{
		Session:    id,
		Detections: detectionsJSON(dets),
		Words:      candidatesJSON(cands),
	})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Close(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Snapshot())
}

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		http.Error(w, "metrics exposition unavailable for this service implementation", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", metricsContentType)
	if err := s.reg.WriteText(w); err != nil {
		// Headers are out; nothing useful left to do (mirrors writeJSON).
		_ = err
	}
}

// maxBodyBytes caps an audio POST at the manager's per-feed sample cap.
func (s *Server) maxBodyBytes() int64 {
	return 2 * int64(s.mgr.MaxChunk())
}

// errBadBody marks malformed request bodies (maps to 400).
var errBadBody = errors.New("serve: malformed audio body")

// readPCM16 decodes a request body of 16-bit little-endian mono PCM into
// the [-1,1) float samples the pipeline consumes.
func readPCM16(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]float64, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("%w: body over %d bytes", pipeline.ErrOversizedChunk, maxBytes)
		}
		return nil, fmt.Errorf("%w: %v", errBadBody, err)
	}
	return decodePCM16(body, maxBytes)
}

// decodePCM16 converts one wire chunk (16-bit LE mono PCM) into float
// samples — the shared decode path for the HTTP body and WebSocket
// binary-frame ingest routes.
func decodePCM16(body []byte, maxBytes int64) ([]float64, error) {
	if int64(len(body)) > maxBytes {
		return nil, fmt.Errorf("%w: body over %d bytes", pipeline.ErrOversizedChunk, maxBytes)
	}
	if len(body)%2 != 0 {
		return nil, fmt.Errorf("%w: odd byte count %d", errBadBody, len(body))
	}
	out := make([]float64, len(body)/2)
	for i := range out {
		out[i] = float64(int16(binary.LittleEndian.Uint16(body[2*i:]))) / 32768
	}
	return out, nil
}

// EncodePCM16 converts float samples to the wire format. Exported for
// load generators and client tooling.
//
// The scale is 32768 — the same one readPCM16 divides by — with
// round-half-away-from-zero and saturation at the int16 limits, so
// encode→decode round-trips within half a quantization step
// (1/65536) everywhere except at the positive clip, where +1.0
// saturates to 32767 and the error reaches 1/32768; -1.0 maps exactly
// to -32768 and back. (The previous *32767-and-truncate encoding was
// asymmetric with the decoder: every sample came back biased toward
// zero and the -32768 codepoint was unreachable.)
func EncodePCM16(samples []float64) []byte {
	out := make([]byte, 2*len(samples))
	for i, v := range samples {
		f := math.Round(v * 32768)
		if f > 32767 {
			f = 32767
		} else if f < -32768 {
			f = -32768
		}
		binary.LittleEndian.PutUint16(out[2*i:], uint16(int16(f)))
	}
	return out
}

func detectionsJSON(dets []pipeline.Detection) []DetectionJSON {
	out := make([]DetectionJSON, len(dets))
	for i, d := range dets {
		out[i] = DetectionJSON{
			Stroke:       d.Stroke.String(),
			StartFrame:   d.Segment.Start,
			EndFrame:     d.Segment.End,
			Contaminated: d.Contaminated,
		}
	}
	return out
}

func candidatesJSON(cands []infer.Candidate) []CandidateJSON {
	out := make([]CandidateJSON, len(cands))
	for i, c := range cands {
		out[i] = CandidateJSON{Word: c.Word, Score: c.Score, Corrected: c.Corrected}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are out; nothing useful left to do.
		_ = err
	}
}

// writeError maps typed service errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBackpressure):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownSession):
		status = http.StatusNotFound
	case errors.Is(err, ErrSessionLimit), errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, pipeline.ErrOversizedChunk):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, errBadBody):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
