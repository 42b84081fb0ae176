package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/stream"
	"github.com/disco-sim/disco/internal/trace"
)

const blk = compress.BlockSize

// svcSize fixes a service workload.
type svcSize struct {
	codecs []string
	// blocks is the length of each stream's payload (svc-bulk) or of
	// the pool of blocks the requests cycle through (svc-small); one
	// svc-small repetition sends the pool once, so every repetition
	// sends the same requests.
	blocks int
	// chunk is the number of blocks per Write (svc-bulk).
	chunk int
	// warmup is the number of requests (svc-small) or rounds (svc-bulk)
	// that set-up sends before measuring starts.
	warmup int
}

// svcSmallSize: one 64-byte block per request; 4096 requests per
// repetition give 40 samples beyond each repetition's p99. Set-up sends
// the pool five times, so every repetition starts at its first block.
var svcSmallSize = svcSize{codecs: []string{"delta"}, blocks: 4096, warmup: 5 * 4096}

// svcBulkSize: one stream per codec, each a fixed 2048 blocks. Stream
// length stays fixed because SC² and FVC slow down as their frequency
// tables grow with it (see README.md). 8-block writes give 1024 writes
// per round, 10 of them beyond the round's p99.
var svcBulkSize = svcSize{codecs: []string{"delta", "bdi", "sc2", "fvc"}, blocks: 2048, chunk: 8, warmup: 1}

// svcPayload returns a stream's seeded payload of n blocks: runs of
// eight consecutive blocks of one workload profile, cycling through
// every profile, so the stream mixes zero, repeated, narrow, pointer,
// float, text and random data the way the simulated caches see it.
func svcPayload(seed int64, stream, n int) []byte {
	profs := trace.Profiles()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	out := make([]byte, 0, n*blk)
	var addr uint64
	for j := 0; j < n; j++ {
		if j%8 == 0 {
			addr = trace.PrivateBase(rng.Intn(64)) + uint64(rng.Intn(1<<20))
		}
		p := &profs[(j/8)%len(profs)]
		out = p.AppendContent(out, addr+uint64(j%8))
	}
	return out
}

// svcServer is an in-process stream.Server on a loopback listener.
type svcServer struct {
	srv  *stream.Server
	addr string
	done chan error
	sock *sockStats // server-side socket timing (nil when unwrapped)
}

func startServer(timed bool) (*svcServer, error) {
	srv, err := stream.NewServer(stream.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &svcServer{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	var l net.Listener = ln
	if timed {
		s.sock = &sockStats{}
		l = timedListener{Listener: ln, st: s.sock}
	}
	go func() { s.done <- srv.Serve(l) }()
	return s, nil
}

// stop drains the server and waits for its accept loop to return.
func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	if n := s.srv.M.ConnErrors.Load() + s.srv.M.HandshakeErrors.Load(); n != 0 {
		return fmt.Errorf("server saw %d connection errors", n)
	}
	return nil
}

// dial connects to s and handshakes codec. With sock, the client
// socket is timed; with tr, the handshake is a span under parent. hs,
// when non-nil, times the handshake.
func (s *svcServer) dial(e *runEnv, codec string, tr *tracer, sock *sockStats, hs *opStats, parent int, req int64) (*stream.Conn, *timedConn, error) {
	raw, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	loop := raw.RemoteAddr().(*net.TCPAddr).IP.IsLoopback()
	e.host.Loopback = &loop
	var nc net.Conn = raw
	var tc *timedConn
	if sock != nil {
		tc = &timedConn{Conn: raw, st: sock, tr: tr}
		nc = tc
	}
	sp := tr.begin("stream.handshake", parent, req)
	if tc != nil {
		tc.readParent.Store(int64(sp))
		tc.writeParent.Store(int64(sp))
	}
	t0 := time.Now()
	c, err := stream.Client(nc, codec)
	if hs != nil {
		hs.add(time.Since(t0).Nanoseconds(), 0)
	}
	tr.end(sp)
	if err != nil {
		_ = raw.Close()
		return nil, nil, fmt.Errorf("handshake: %w", err)
	}
	return c, tc, nil
}

// streamTimes times the client's calls into the stream layer. A nil
// *streamTimes makes plain calls.
type streamTimes struct{ w, r, hs opStats }

// write writes p as one stream Write, a span under parent.
func (st *streamTimes) write(c *stream.Conn, tc *timedConn, tr *tracer, parent int, req int64, p []byte) error {
	if st == nil {
		_, err := c.Write(p)
		return err
	}
	sp := tr.begin("stream.write", parent, req)
	tc.writeParent.Store(int64(sp))
	t0 := time.Now()
	_, err := c.Write(p)
	st.w.add(time.Since(t0).Nanoseconds(), len(p))
	tr.end(sp)
	return err
}

// read fills p from the stream, a span under parent.
func (st *streamTimes) read(c *stream.Conn, tc *timedConn, tr *tracer, parent int, req int64, p []byte) error {
	if st == nil {
		_, err := io.ReadFull(c, p)
		return err
	}
	sp := tr.begin("stream.read", parent, req)
	tc.readParent.Store(int64(sp))
	t0 := time.Now()
	n, err := io.ReadFull(c, p)
	st.r.add(time.Since(t0).Nanoseconds(), n)
	tr.end(sp)
	return err
}

// hangUp half-closes c, checks that the server mirrors the half-close,
// and closes the connection.
func hangUp(c *stream.Conn) error {
	defer c.Close()
	if err := c.CloseWrite(); err != nil {
		return fmt.Errorf("close-write: %w", err)
	}
	var b [blk]byte
	if n, err := c.Read(b[:]); err != io.EOF {
		return fmt.Errorf("after half-close: read %d bytes, err %v", n, err)
	}
	return nil
}

// errBroken stops a measured phase after a stream failed; the failure
// has already been counted.
var errBroken = errors.New("stream broken")

// latency keeps each repetition's request-latency p50 and p99.
type latency struct{ p50, p99 []float64 }

func (l *latency) add(rtts []float64) {
	if p99, err := percentile(rtts, 99); err == nil {
		l.p50 = append(l.p50, median(rtts))
		l.p99 = append(l.p99, p99)
	}
}

// report sets the medians over repetitions.
func (l *latency) report(res *result) {
	res.set("svc.rtt_p50_us", median(l.p50))
	res.set("svc.rtt_p99_us", median(l.p99))
}

// runSvcSmall measures a closed loop of one client connection sending
// one 64-byte block per request and waiting for its echo.
func runSvcSmall(e *runEnv, z svcSize, res *result) error {
	var srv *svcServer
	var c *stream.Conn
	var pool []byte
	closeAll := func() error {
		var err error
		if c != nil {
			err = hangUp(c)
		}
		if srv != nil {
			err = errors.Join(err, srv.stop())
		}
		c, srv = nil, nil
		return err
	}
	defer closeAll()
	rtts := make([]float64, 0, z.blocks)
	next := 0
	// requests sends n requests on conn, cycling through the pool; with
	// tr each request is a span tree.
	requests := func(conn *stream.Conn, tc *timedConn, n int, tr *tracer, st *streamTimes) error {
		rtts = rtts[:0]
		var got [blk]byte
		for i := 0; i < n; i++ {
			want := pool[next*blk : (next+1)*blk]
			next = (next + 1) % z.blocks
			res.attempted++
			root := tr.begin("bench.request", 0, int64(i))
			t0 := time.Now()
			err := st.write(conn, tc, tr, root, int64(i), want)
			if err == nil {
				err = st.read(conn, tc, tr, root, int64(i), got[:])
			}
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.end(root)
			if err != nil {
				res.fail(int64(n-i), "request %d: %v", i, err)
				return errBroken
			}
			if !bytes.Equal(got[:], want) {
				res.fail(1, "request %d: echo differs", i)
			}
		}
		return nil
	}

	setup, err := setupSeconds(3, func() error {
		if err := closeAll(); err != nil {
			return err
		}
		pool = svcPayload(e.seed, 0, z.blocks)
		var err error
		if srv, err = startServer(false); err != nil {
			return err
		}
		if c, _, err = srv.dial(e, z.codecs[0], nil, nil, nil, 0, 0); err != nil {
			return err
		}
		return requests(c, nil, z.warmup, nil, nil)
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	var lat latency
	samples, err := measure(e.seconds, func() (sample, error) {
		t := startTimer()
		err := requests(c, nil, z.blocks, nil, nil)
		s := t.stop(float64(z.blocks))
		lat.add(rtts)
		return s, err
	})
	if err != nil && !errors.Is(err, errBroken) {
		return err
	}
	if err := setEndToEnd(res, setup, samples); err != nil {
		return err
	}
	if err := closeAll(); err != nil && res.failed == 0 {
		return err
	}
	if !e.trace || res.failed > 0 {
		return nil
	}
	lat.report(res)

	tr := newTracer()
	if srv, err = startServer(true); err != nil {
		return err
	}
	server := srv
	client, st := &sockStats{}, &streamTimes{}
	var tc *timedConn
	if c, tc, err = srv.dial(e, z.codecs[0], tr, client, &st.hs, 0, 0); err != nil {
		return err
	}
	start := next
	runtime.GC()
	t0 := time.Now()
	if err := requests(c, tc, z.blocks, tr, st); err != nil {
		return nil // counted as failed; no per-layer figures from a broken run
	}
	tracedS := time.Since(t0).Seconds()
	if err := closeAll(); err != nil {
		return err
	}
	setOverhead(res, float64(z.blocks)/tracedS)
	svcLayers(res, z.blocks, st, client, server)
	blocks := make([][]byte, z.blocks)
	for i := range blocks {
		j := (start + i) % z.blocks
		blocks[i] = pool[j*blk : (j+1)*blk]
	}
	if err := statefulLayers(res, tr, map[string][][]byte{z.codecs[0]: blocks}); err != nil {
		return err
	}
	return writeSpans(e, tr, "svc-small", res)
}

// svcLayers sets the stream, socket and wire metrics of a traced pass
// that echoed blocks blocks.
func svcLayers(res *result, blocks int, st *streamTimes, client *sockStats, server *svcServer) {
	n := float64(blocks)
	res.set("stream.handshake_ms", st.hs.meanMicros()/1e3)
	res.set("stream.write_us", st.w.meanMicros())
	res.set("stream.read_us", st.r.meanMicros())
	ss := server.sock
	res.set("socket.read_calls_per_block", float64(client.read.calls.Load()+ss.read.calls.Load())/n)
	res.set("socket.write_calls_per_block", float64(client.write.calls.Load()+ss.write.calls.Load())/n)
	res.set("socket.client_read_us", client.read.meanMicros())
	res.set("socket.client_write_us", client.write.meanMicros())
	res.set("socket.server_read_us", ss.read.meanMicros())
	res.set("socket.server_write_us", ss.write.meanMicros())
	blocksIn, blocksOut, bytesIn, bytesOut, wireIn, wireOut := server.srv.M.Totals()
	res.set("stream.wire_bytes_per_block", ratio(float64(wireIn+wireOut), float64(blocksIn+blocksOut)))
	res.set("svc.wire_ratio", ratio(float64(wireIn+wireOut), float64(bytesIn+bytesOut)))
}

// retrainEvery is the block cadence at which compress.Stateful retrains
// a trainable codec.
const retrainEvery = 256

// statefulLayers replays each codec's exact block sequence through a
// fresh Stateful encoder/decoder pair, timing every Encode and Decode,
// then through a bare codec instance at the Stateful retrain cadence,
// timing every Retrain, and once more untimed to count allocations.
func statefulLayers(res *result, tr *tracer, streams map[string][][]byte) error {
	for codec, blocks := range streams {
		pair := func() (*compress.Stateful, *compress.Stateful, error) {
			a, err := compress.New(codec)
			if err != nil {
				return nil, nil, err
			}
			b, err := compress.New(codec)
			if err != nil {
				return nil, nil, err
			}
			return compress.NewStateful(a), compress.NewStateful(b), nil
		}
		enc, dec, err := pair()
		if err != nil {
			return err
		}
		res.attempted += int64(len(blocks))
		sp := tr.begin("compress.stateful", 0, 0)
		var encNS, decNS int64
		var modes [3]float64
		for i, b := range blocks {
			t0 := time.Now()
			sb := enc.Encode(b)
			t1 := time.Now()
			out, err := dec.Decode(sb)
			decNS += time.Since(t1).Nanoseconds()
			encNS += t1.Sub(t0).Nanoseconds()
			if err != nil || !bytes.Equal(out, b) {
				res.fail(1, "%s replay: block %d does not round-trip (%v)", codec, i, err)
			}
			modes[sb.Mode]++
		}
		tr.end(sp)
		n := float64(len(blocks))
		res.set("compress.stateful_encode_us."+codec, float64(encNS)/1e3/n)
		res.set("compress.stateful_decode_us."+codec, float64(decNS)/1e3/n)
		for m, name := range []string{"stored", "direct", "residual"} {
			res.set("compress.mode_share."+name+"."+codec, modes[m]/n)
		}

		alg, err := compress.New(codec)
		if err != nil {
			return err
		}
		var retrainNS, retrains float64
		if t, ok := alg.(compress.Trainable); ok {
			sp := tr.begin("compress.retrain", 0, 0)
			for i, b := range blocks {
				t.Observe(b)
				if (i+1)%retrainEvery == 0 {
					t0 := time.Now()
					t.Retrain()
					retrainNS += float64(time.Since(t0).Nanoseconds())
					retrains++
				}
			}
			tr.end(sp)
		}
		res.set("compress.stateful_retrain_us."+codec, ratio(retrainNS/1e3, retrains))

		enc, dec, err = pair()
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, b := range blocks {
			if _, err := dec.Decode(enc.Encode(b)); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		res.set("compress.stateful_allocs_per_block."+codec, float64(m1.Mallocs-m0.Mallocs)/n)
	}
	return nil
}

// bulkStream sends one codec's payload over a fresh connection in
// z.chunk-block writes while a reader goroutine collects the echo, then
// half-closes. It returns each write's round trip: from the start of
// the write until the last byte of its echo arrived.
func bulkStream(e *runEnv, srv *svcServer, codec string, payload []byte, z svcSize, res *result,
	tr *tracer, sock *sockStats, st *streamTimes, req int64) ([]float64, error) {
	root := tr.begin("bench.stream", 0, req)
	defer tr.end(root)
	var hs *opStats
	if st != nil {
		hs = &st.hs
	}
	c, tc, err := srv.dial(e, codec, tr, sock, hs, root, req)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	chunk := z.chunk * blk
	writes := (len(payload) + chunk - 1) / chunk
	sent := make([]time.Time, writes)
	echoed := make([]time.Time, writes)
	got := make([]byte, len(payload))

	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		off := 0
		for off < len(got) {
			end := min(off+blk, len(got))
			if readErr = st.read(c, tc, tr, root, req, got[off:end]); readErr != nil {
				return
			}
			off = end
			if off%chunk == 0 || off == len(got) {
				echoed[(off-1)/chunk] = time.Now()
			}
		}
		var b [blk]byte
		if n, err := c.Read(b[:]); err != io.EOF {
			readErr = fmt.Errorf("after half-close: read %d bytes, err %v", n, err)
		}
	}()
	var writeErr error
	for w := 0; w < writes && writeErr == nil; w++ {
		sent[w] = time.Now()
		writeErr = st.write(c, tc, tr, root, req, payload[w*chunk:min((w+1)*chunk, len(payload))])
	}
	if writeErr == nil {
		writeErr = c.CloseWrite()
	} else {
		_ = c.Close() // unblock the reader
	}
	wg.Wait()
	blocks := int64(len(payload) / blk)
	res.attempted += blocks
	if err := errors.Join(writeErr, readErr); err != nil {
		res.fail(blocks, "%s stream: %v", codec, err)
		return nil, errBroken
	}
	for i := int64(0); i < blocks; i++ {
		if !bytes.Equal(got[i*blk:(i+1)*blk], payload[i*blk:(i+1)*blk]) {
			res.fail(1, "%s stream: block %d echo differs", codec, i)
		}
	}
	rtts := make([]float64, writes)
	for w := range rtts {
		rtts[w] = float64(echoed[w].Sub(sent[w]).Nanoseconds()) / 1e3
	}
	return rtts, nil
}

// runSvcBulk measures rounds of one fixed-length stream per codec, one
// connection at a time.
func runSvcBulk(e *runEnv, z svcSize, res *result) error {
	var srv *svcServer
	defer func() {
		if srv != nil {
			_ = srv.stop()
		}
	}()
	payloads := make([][]byte, len(z.codecs))
	round := func(srv *svcServer, tr *tracer, sock *sockStats, st *streamTimes) ([]float64, error) {
		var rtts []float64
		for i, codec := range z.codecs {
			r, err := bulkStream(e, srv, codec, payloads[i], z, res, tr, sock, st, int64(i))
			if err != nil {
				return nil, err
			}
			rtts = append(rtts, r...)
		}
		return rtts, nil
	}
	setup, err := setupSeconds(3, func() error {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
			srv = nil
		}
		for i := range z.codecs {
			payloads[i] = svcPayload(e.seed, i, z.blocks)
		}
		var err error
		if srv, err = startServer(false); err != nil {
			return err
		}
		for i := 0; i < z.warmup; i++ {
			if _, err := round(srv, nil, nil, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	var lat latency
	work := float64(len(z.codecs) * z.blocks)
	samples, err := measure(e.seconds, func() (sample, error) {
		t := startTimer()
		rtts, err := round(srv, nil, nil, nil)
		s := t.stop(work)
		lat.add(rtts)
		return s, err
	})
	if err != nil && !errors.Is(err, errBroken) {
		return err
	}
	if err := setEndToEnd(res, setup, samples); err != nil {
		return err
	}
	err = srv.stop()
	srv = nil
	if err != nil && res.failed == 0 {
		return err
	}
	if !e.trace || res.failed > 0 {
		return nil
	}
	lat.report(res)

	tr := newTracer()
	if srv, err = startServer(true); err != nil {
		return err
	}
	server := srv
	client, st := &sockStats{}, &streamTimes{}
	runtime.GC()
	t0 := time.Now()
	if _, err := round(srv, tr, client, st); err != nil {
		return nil // counted as failed; no per-layer figures from a broken run
	}
	tracedS := time.Since(t0).Seconds()
	err = srv.stop()
	srv = nil
	if err != nil && res.failed == 0 {
		return err
	}
	setOverhead(res, work/tracedS)
	svcLayers(res, int(work), st, client, server)
	streams := make(map[string][][]byte, len(z.codecs))
	for i, codec := range z.codecs {
		for b := 0; b < z.blocks; b++ {
			streams[codec] = append(streams[codec], payloads[i][b*blk:(b+1)*blk])
		}
	}
	if err := statefulLayers(res, tr, streams); err != nil {
		return err
	}
	return writeSpans(e, tr, "svc-bulk", res)
}
