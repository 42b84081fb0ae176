package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestConfigErrorsExit2: operator mistakes in flags or the codec
// allowlist are configuration errors.
func TestConfigErrorsExit2(t *testing.T) {
	for name, args := range map[string][]string{
		"bad flag":      {"-no-such-flag"},
		"unknown codec": {"-codecs", "nosuch", "-listen", "127.0.0.1:0"},
	} {
		if got := realMain(args); got != ExitConfig {
			t.Errorf("%s: exit %d, want %d", name, got, ExitConfig)
		}
	}
}

// TestUnbindableListenExit1: a listen address that cannot be bound is
// an internal error, not a configuration one.
func TestUnbindableListenExit1(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if got := realMain([]string{"-listen", ln.Addr().String()}); got != ExitError {
		t.Errorf("exit %d, want %d", got, ExitError)
	}
}

// TestPortFileThenSIGTERMDrainsClean boots discod, waits for the
// atomically written port file, signals the moment it appears, and
// requires a clean drain (exit 0).
func TestPortFileThenSIGTERMDrainsClean(t *testing.T) {
	portFile := filepath.Join(t.TempDir(), "port")
	done := make(chan int, 1)
	go func() {
		done <- realMain([]string{"-listen", "127.0.0.1:0", "-port-file", portFile, "-drain", "5s"})
	}()
	var body []byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		if body, err = os.ReadFile(portFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("discod never wrote its port file")
		}
		time.Sleep(10 * time.Millisecond)
	}
	addr := strings.TrimSpace(string(body))
	if _, _, err := net.SplitHostPort(addr); err != nil {
		t.Fatalf("port file holds %q, not a host:port: %v", body, err)
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != ExitOK {
			t.Errorf("exit %d after SIGTERM, want %d (clean drain)", got, ExitOK)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("discod did not exit after SIGTERM")
	}
}
