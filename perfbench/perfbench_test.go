package main

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/store"
	"github.com/disco-sim/disco/internal/trace"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{1000, 99, 990}, {999, 99, 0}, {20, 50, 10}, {19, 50, 0}, {1, 50, 0}, {0, 50, 0},
		{100, 0, 0}, {100, 100, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfSeconds(t *testing.T) {
	tr := newTracer()
	// A root of 100 ns with two overlapping children covering 10..60,
	// one of which has a grandchild covering 20..30.
	tr.record("bench.root", 0, 0, 0, 100)
	tr.record("stream.a", 1, 0, 10, 50)
	tr.record("stream.b", 1, 0, 30, 60)
	tr.record("socket.c", 2, 0, 20, 30)
	got := tr.selfSeconds()
	want := map[string]float64{"bench": 50e-9, "stream": (40 - 10 + 30) * 1e-9, "socket": 10e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self %s = %g, want %g", k, got[k], v)
		}
	}
}

// chunks splits data into pieces of pseudo-random length.
func chunks(data []byte, rng *rand.Rand) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := min(1+rng.Intn(300), len(data))
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

func TestTimedConnPassesBytesAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 10_000)
	rng.Read(data)
	pieces := chunks(data, rng)

	a, b := net.Pipe()
	st := &sockStats{}
	tc := &timedConn{Conn: a, st: st, tr: newTracer()}
	done := make(chan error, 1)
	go func() {
		for _, p := range pieces {
			if _, err := tc.Write(p); err != nil {
				done <- err
				return
			}
		}
		done <- tc.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bytes changed passing through timedConn.Write")
	}
	if n := st.write.calls.Load(); n != int64(len(pieces)) {
		t.Errorf("write calls = %d, want %d", n, len(pieces))
	}
	if n := st.write.bytes.Load(); n != int64(len(data)) {
		t.Errorf("write bytes = %d, want %d", n, len(data))
	}
	if n := len(tc.tr.spans); n != len(pieces) {
		t.Errorf("spans = %d, want %d", n, len(pieces))
	}

	// Reads through a listener-wrapped conn: every Read call counts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvStats := &sockStats{}
	tl := timedListener{Listener: ln, st: srvStats}
	go func() {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer nc.Close()
		_, _ = nc.Write(data)
	}()
	nc, err := tl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var buf bytes.Buffer
	reads := 0
	p := make([]byte, 777)
	for {
		n, err := nc.Read(p)
		reads++
		buf.Write(p[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("bytes changed passing through timedConn.Read")
	}
	if n := srvStats.read.calls.Load(); n != int64(reads) {
		t.Errorf("read calls = %d, want %d", n, reads)
	}
	if n := srvStats.read.bytes.Load(); n != int64(len(data)) {
		t.Errorf("read bytes = %d, want %d", n, len(data))
	}
}

func TestTimedFSPassesBytesAndCounts(t *testing.T) {
	dir := t.TempDir()
	st := &fsStats{}
	fs := &timedFS{fs: store.OSFS{}, st: st}
	s, err := store.Open(dir, store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	want := cmp.Results{Benchmark: "canneal", Cycles: 12345, L1Hits: 7}
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || got.Cycles != want.Cycles || got.L1Hits != want.L1Hits || got.Benchmark != want.Benchmark {
		t.Fatalf("Get through timedFS = %+v, %v", got, ok)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, s.EntryName("k")))
	if err != nil {
		t.Fatal(err)
	}
	if n := st.write.bytes.Load(); n != int64(len(onDisk)) {
		t.Errorf("bytes written = %d, file holds %d", n, len(onDisk))
	}
	if n := st.readFile.bytes.Load(); n != int64(len(onDisk)) {
		t.Errorf("bytes read = %d, file holds %d", n, len(onDisk))
	}
	for name, c := range map[string]struct {
		o    *opStats
		want int64
	}{
		"mkdir": {&st.mkdir, 1}, "create": {&st.create, 1}, "sync": {&st.sync, 1}, "close": {&st.close, 1},
		"rename": {&st.rename, 1}, "syncdir": {&st.syncDir, 1}, "readfile": {&st.readFile, 1}, "remove": {&st.remove, 0},
	} {
		if n := c.o.calls.Load(); n != c.want {
			t.Errorf("%s calls = %d, want %d", name, n, c.want)
		}
	}
}

// TestEmittedNamesAreDeclared runs every workload at a tiny size, traced
// and untraced, and checks the names it emits against BENCHMARK.json:
// each matches the name pattern and is declared, every end-to-end
// metric is measured by every workload, and every per-layer metric by
// at least one workload.
func TestEmittedNamesAreDeclared(t *testing.T) {
	decl, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); !equal(got, declared) {
		t.Fatalf("workloads in code %v, declared %v", got, declared)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, decl.EndToEnd...), decl.PerLayer...) {
		if !namePattern.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("declared name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}

	tiny := map[string]func(*runEnv, *result) error{
		"sim-k8": func(e *runEnv, r *result) error {
			return runSim(e, simSize{k: 4, ops: 60, warmup: 20, bench: "canneal", setupDiv: 2, probeEvery: 1}, r)
		},
		"campaign-k4": func(e *runEnv, r *result) error {
			return runCampaign(e, campaignSize{ops: 40, warmup: 20, benchmarks: []string{"canneal"},
				workers: 2, setupDiv: 2, probeEvery: 1}, r)
		},
		"svc-small": func(e *runEnv, r *result) error {
			return runSvcSmall(e, svcSize{codecs: []string{"delta"}, blocks: 64, warmup: 128}, r)
		},
		"svc-bulk": func(e *runEnv, r *result) error {
			return runSvcBulk(e, svcSize{codecs: []string{"delta", "bdi", "sc2", "fvc"}, blocks: 300, chunk: 1, warmup: 1}, r)
		},
	}
	measured := map[string]bool{}
	for _, name := range declared {
		for _, traced := range []bool{false, true} {
			e := &runEnv{seed: 3, seconds: 0.001, trace: traced, out: t.TempDir(), host: &hostFacts{}}
			res := newResult()
			if err := tiny[name](e, res); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.correct || res.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, res.failed, res.attempted)
			}
			res.set("failed_ratio", 0)
			if _, err := decl.render(res, traced); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			for m := range res.layer {
				measured[m] = true
			}
		}
	}
	for _, d := range decl.PerLayer {
		if !measured[d.Name] {
			t.Errorf("per-layer metric %q is declared but no workload measures it", d.Name)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSvcPayloadIsSeeded(t *testing.T) {
	a, b, c := svcPayload(5, 0, 100), svcPayload(5, 0, 100), svcPayload(6, 0, 100)
	if !bytes.Equal(a, b) || bytes.Equal(a, c) || len(a) != 100*compress.BlockSize {
		t.Fatal("svcPayload must be a function of the seed alone")
	}
	if len(trace.Profiles()) == 0 {
		t.Fatal("no workload profiles")
	}
}
