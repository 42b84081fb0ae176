package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostFacts is recorded with every result: a number is only comparable
// with another taken on the same host, toolchain and code.
type hostFacts struct {
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Parallelism is the measured speed-up of two spinning goroutines
	// over one: 2.0 means two real CPUs, 1.0 means the two share one.
	Parallelism float64 `json:"effective_parallelism"`
	// Loopback reports whether the service traffic's peer address was a
	// loopback address (only set by the svc workloads).
	Loopback *bool `json:"service_loopback,omitempty"`
	// StoreFS is the filesystem type under the campaign store (only set
	// by campaign-k4).
	StoreFS string `json:"store_fs,omitempty"`
}

func collectHostFacts(srcRoot string) (hostFacts, error) {
	h := hostFacts{
		GoVersion:   runtime.Version(),
		Commit:      "unknown (no VCS metadata)",
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: measureParallelism(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	sum, err := sourceHash(srcRoot)
	if err != nil {
		return h, err
	}
	h.SourceHash = sum
	return h, nil
}

// sourceHash digests go.mod and every .go file under internal/ and
// cmd/, so results from different code never share an identity even
// when the checkout carries no VCS metadata.
func sourceHash(root string) (string, error) {
	files := []string{"go.mod"}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				files = append(files, rel)
			}
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
		// hash.Hash writes never fail.
		_, _ = fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		_, _ = h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// spinSink keeps the spin loops' results observable.
var spinSink [2]uint64

func spin(slot, n int) {
	x := uint64(slot + 1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink[slot] = x
}

// measureParallelism times one spinning goroutine, then two, each doing
// the same work, and returns 2*t(one)/t(two).
func measureParallelism() float64 {
	const n = 50_000_000
	start := time.Now()
	spin(0, n)
	one := time.Since(start)
	start = time.Now()
	var wg sync.WaitGroup
	for slot := 0; slot < 2; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			spin(slot, n)
		}(slot)
	}
	wg.Wait()
	two := time.Since(start)
	return 2 * one.Seconds() / two.Seconds()
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// fsTypeName names the filesystem holding dir.
func fsTypeName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x65735546: "fuse", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
