// Command discod serves the DISCO codec suite as a streaming network
// service (ROADMAP item 1): clients negotiate a registry codec in a
// versioned handshake, then exchange 64-byte blocks compressed against
// per-stream persistent state; discod echoes every decoded block back
// through the return direction's compressor, so a round trip proves
// the full encode→wire→decode path on both ends.
//
// Exit codes (tested in main_test.go):
//
//	0 — clean shutdown: SIGTERM/SIGINT received, every stream drained
//	1 — internal error (listener failure, serve-loop error)
//	2 — configuration error (bad flags, unknown codec)
//	3 — forced shutdown: streams still live when the drain timeout
//	    expired and were force-closed
package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/obs"
	"github.com/disco-sim/disco/internal/stream"
)

// The documented exit-code contract.
const (
	ExitOK     = 0
	ExitError  = 1
	ExitConfig = 2
	ExitForced = 3
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// statusDoc is the /status document: the stream server's counters plus
// the process-health fields the soak harness asserts on.
type statusDoc struct {
	stream.Status
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	Goroutines     int    `json:"goroutines"`
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("discod", flag.ContinueOnError)
	var (
		listenAddr = fs.String("listen", "127.0.0.1:7060", "stream listen address (host:port, :0 picks a port)")
		httpAddr   = fs.String("http", "", "observability HTTP address serving /metrics, /status, /debug/pprof (empty = off)")
		codecs     = fs.String("codecs", "", "comma-separated codec allowlist (empty = full registry: "+strings.Join(compress.Names(), ",")+")")
		maxConns   = fs.Int("max-conns", stream.DefaultMaxConns, "concurrent stream bound (accept-loop backpressure)")
		drain      = fs.Duration("drain", 15*time.Second, "graceful-drain timeout on SIGTERM/SIGINT before live streams are force-closed")
		hsTimeout  = fs.Duration("handshake-timeout", 10*time.Second, "per-connection handshake deadline")
		portFile   = fs.String("port-file", "", "write the bound stream address (and HTTP address on a second line) to this file once listening")
	)
	if err := fs.Parse(args); err != nil {
		return ExitConfig
	}
	rep := obs.NewReporter(os.Stderr, "discod")

	var opts stream.Options
	opts.MaxConns = *maxConns
	opts.HandshakeTimeout = *hsTimeout
	opts.Rep = rep
	if *codecs != "" {
		opts.Codecs = strings.Split(*codecs, ",")
	}
	srv, err := stream.NewServer(opts)
	if err != nil {
		rep.Infof("config: %v", err)
		return ExitConfig
	}

	// Catch signals before anything is bound: a supervisor that sends
	// SIGTERM as soon as the port file appears must get a drain, not the
	// default die-on-signal action.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		rep.Infof("listen %s: %v", *listenAddr, err)
		return ExitError
	}
	rep.Infof("serving streams on %s (codecs: %s, max-conns %d)",
		ln.Addr(), codecList(opts.Codecs), *maxConns)

	httpBound := ""
	if *httpAddr != "" {
		obsSrv := obs.NewServer()
		obsSrv.SetLiveMetrics(srv.M.RenderPrometheus)
		obsSrv.SetLiveStatus(func() any {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return statusDoc{
				Status:         srv.Status(),
				HeapAllocBytes: ms.HeapAlloc,
				Goroutines:     runtime.NumGoroutine(),
			}
		})
		httpBound, err = obsSrv.Start(*httpAddr)
		if err != nil {
			rep.Infof("http: %v", err)
			_ = ln.Close()
			return ExitError
		}
		defer func() { _ = obsSrv.Close() }()
		rep.Infof("observability endpoint on http://%s (/metrics /status /debug/pprof)", httpBound)
	}

	if *portFile != "" {
		// Written atomically (tmp + rename) so a polling script never
		// reads a half-written address.
		tmp := *portFile + ".tmp"
		body := ln.Addr().String() + "\n"
		if httpBound != "" {
			body += httpBound + "\n"
		}
		if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
			rep.Infof("port-file: %v", err)
			_ = ln.Close()
			return ExitError
		}
		if err := os.Rename(tmp, *portFile); err != nil {
			rep.Infof("port-file: %v", err)
			_ = ln.Close()
			return ExitError
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil {
			rep.Infof("serve: %v", err)
			return ExitError
		}
		return ExitOK
	case sig := <-sigc:
		rep.Infof("%s: draining %d live stream(s) (timeout %s; signal again to exit immediately)",
			sig, srv.ActiveConns(), *drain)
	}

	// Second signal during the drain forces an immediate exit.
	go func() {
		<-sigc
		rep.Infof("second signal: exiting immediately")
		os.Exit(ExitForced)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = srv.Shutdown(ctx)
	<-serveErr // accept loop has returned (nil, it saw the drain)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			rep.Infof("drain timeout: force-closed remaining streams")
			return ExitForced
		}
		rep.Infof("shutdown: %v", err)
		return ExitError
	}
	st := srv.Status()
	rep.Infof("drained clean: %d streams served, %d blocks in, %d blocks out",
		st.Accepted, st.BlocksIn, st.BlocksOut)
	return ExitOK
}

func codecList(names []string) string {
	if len(names) == 0 {
		return strings.Join(compress.Names(), ",")
	}
	return strings.Join(names, ",")
}
