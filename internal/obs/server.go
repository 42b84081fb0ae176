package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"github.com/disco-sim/disco/internal/metrics"
)

// Server is the HTTP observability endpoint: /metrics (Prometheus text
// exposition), /status (live JSON), and /debug/pprof.
//
// Concurrency contract — the reason the endpoint cannot perturb or race
// the simulation:
//
//   - Boundary-published data (PublishStatus, PublishMetricsExport) is
//     snapshotted and pre-rendered by the SIMULATION goroutine at a
//     commit boundary, then swapped in through an atomic pointer.
//     Handlers only ever read immutable byte slices; they never touch
//     live sim state.
//   - Live data (SetLiveStatus, SetLiveMetrics) is rendered per request
//     on the HANDLER goroutine, so the closures must be internally
//     thread-safe. The two users are the profiler registry (atomic
//     counters) and simrun campaign stats (mutex-protected).
type Server struct {
	mux  *http.ServeMux
	srv  *http.Server
	ln   net.Listener
	done chan struct{}

	status  atomic.Pointer[[]byte] // published /status JSON
	promtxt atomic.Pointer[[]byte] // published /metrics exposition text

	liveStatus  atomic.Pointer[func() any]
	liveMetrics atomic.Pointer[func() []byte]
}

// Namespace is the Prometheus namespace every exposition family is
// prefixed with.
const Namespace = "disco"

// NewServer builds an unstarted server with its routes registered.
func NewServer() *Server {
	s := &Server{mux: http.NewServeMux(), done: make(chan struct{})}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Start listens on addr ("":0" picks a free port) and serves in a
// background goroutine. It returns the bound address, so callers that
// asked for :0 — the HTTP smoke tests — learn where to connect.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal shutdown path; anything else has
		// nowhere useful to go — the endpoint is best-effort by design.
		_ = s.srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down and waits for the serve goroutine.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// ServeHTTP exposes the mux directly (handler-level tests hit it
// without a listener).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// PublishStatus marshals v and swaps it in as the /status document.
// Call from the simulation goroutine at a commit boundary so v is a
// coherent picture (noc.Snapshot + campaign fields).
func (s *Server) PublishStatus(v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	s.status.Store(&data)
	return nil
}

// PublishMetricsExport renders already-taken registry exports as
// Prometheus text and swaps them in as the /metrics document. Call from
// the simulation goroutine at a commit boundary: the snapshots are
// taken there (coherent), and the handler serves the immutable bytes.
func (s *Server) PublishMetricsExport(exports ...metrics.Export) error {
	var buf []byte
	w := &appendWriter{buf: &buf}
	for _, ex := range exports {
		if err := metrics.WritePrometheusExport(w, Namespace, ex); err != nil {
			return err
		}
	}
	s.promtxt.Store(&buf)
	return nil
}

// SetLiveStatus installs a per-request /status builder for callers with
// no commit boundary to publish from (simrun campaigns). fn runs on the
// handler goroutine and must be thread-safe. It takes precedence over
// published status.
func (s *Server) SetLiveStatus(fn func() any) { s.liveStatus.Store(&fn) }

// SetLiveMetrics installs a per-request exposition-text appender whose
// output is served after any published text. fn runs on the handler
// goroutine and must be thread-safe.
func (s *Server) SetLiveMetrics(fn func() []byte) { s.liveMetrics.Store(&fn) }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if p := s.promtxt.Load(); p != nil {
		_, _ = w.Write(*p)
	}
	if fn := s.liveMetrics.Load(); fn != nil {
		_, _ = w.Write((*fn)())
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if fn := s.liveStatus.Load(); fn != nil {
		data, err := json.MarshalIndent((*fn)(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(append(data, '\n'))
		return
	}
	if p := s.status.Load(); p != nil {
		_, _ = w.Write(*p)
		return
	}
	_, _ = w.Write([]byte("{}\n"))
}

// appendWriter adapts an append-to-slice sink to io.Writer.
type appendWriter struct{ buf *[]byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	*a.buf = append(*a.buf, p...)
	return len(p), nil
}
