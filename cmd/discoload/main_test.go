package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/disco-sim/disco/internal/stream"
)

// TestConfigErrorsExit2: bad flags, a non-positive stream count and an
// unknown codec are configuration errors, caught before any dial.
func TestConfigErrorsExit2(t *testing.T) {
	for name, args := range map[string][]string{
		"bad flag":      {"-no-such-flag"},
		"zero streams":  {"-streams", "0"},
		"unknown codec": {"-codec", "nosuch"},
	} {
		if got := realMain(args); got != ExitConfig {
			t.Errorf("%s: exit %d, want %d", name, got, ExitConfig)
		}
	}
}

// TestLoadAgainstInProcessServer drives an in-process stream.Server and
// checks the exit code and the -report JSON: every stream must
// round-trip byte-exactly.
func TestLoadAgainstInProcessServer(t *testing.T) {
	srv, err := stream.NewServer(stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
		<-serveErr
	}()

	const streams = 6
	reportPath := filepath.Join(t.TempDir(), "report.json")
	args := []string{"-addr", ln.Addr().String(), "-streams", "6", "-blocks", "40",
		"-workers", "3", "-report", reportPath, "-timeout", "30s"}
	if got := realMain(args); got != ExitOK {
		t.Fatalf("exit %d, want %d", got, ExitOK)
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, raw)
	}
	if r.Streams != streams || r.OK != streams || r.Corrupt != 0 || r.Errors != 0 {
		t.Errorf("report: %d/%d ok, %d corrupt, %d errors; want %d/%d, 0, 0",
			r.OK, r.Streams, r.Corrupt, r.Errors, streams, streams)
	}
	if r.BlocksEach != 40 || len(r.Codecs) == 0 || r.BytesSent != int64(streams*40*64) {
		t.Errorf("report fields: blocks_each=%d codecs=%v bytes_sent=%d", r.BlocksEach, r.Codecs, r.BytesSent)
	}
}
