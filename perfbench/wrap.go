package main

import (
	"net"
	"sync/atomic"
	"time"

	"github.com/disco-sim/disco/internal/store"
)

// opStats counts the calls into one operation and the wall-clock
// nanoseconds they took. It is shared by goroutines, hence atomic.
type opStats struct {
	calls atomic.Int64
	ns    atomic.Int64
	bytes atomic.Int64
}

func (o *opStats) add(ns int64, bytes int) {
	o.calls.Add(1)
	o.ns.Add(ns)
	o.bytes.Add(int64(bytes))
}

// meanMicros is the mean call duration in microseconds.
func (o *opStats) meanMicros() float64 {
	return ratio(float64(o.ns.Load())/1e3, float64(o.calls.Load()))
}

// sockStats times the socket calls of every connection it is attached
// to.
type sockStats struct{ read, write opStats }

// timedConn passes every call through to the wrapped net.Conn and
// counts and times Read and Write. With a tracer it also records each
// call as a span whose parent is the stream call that caused it.
type timedConn struct {
	net.Conn
	st *sockStats
	tr *tracer
	// readParent / writeParent are the span IDs of the stream calls
	// currently reading and writing (set by the goroutine making them).
	readParent, writeParent atomic.Int64
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.done(&c.st.read, "socket.read", &c.readParent, start, n)
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.done(&c.st.write, "socket.write", &c.writeParent, start, n)
	return n, err
}

func (c *timedConn) done(o *opStats, name string, parent *atomic.Int64, start time.Time, n int) {
	end := time.Now()
	o.add(int64(end.Sub(start)), n)
	if c.tr != nil {
		c.tr.record(name, int(parent.Load()), 0, int64(start.Sub(c.tr.epoch)), int64(end.Sub(c.tr.epoch)))
	}
}

// CloseWrite forwards a half-close to transports that support it, so
// the stream layer's TCP FIN behaviour is unchanged by the wrapper.
func (c *timedConn) CloseWrite() error {
	if hc, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return nil
}

// timedListener wraps every accepted connection in a timedConn that
// reports into st (untraced: server-side spans would only show the
// server waiting for the client).
type timedListener struct {
	net.Listener
	st *sockStats
}

func (l timedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: nc, st: l.st}, nil
}

// fsStats times the store's filesystem operations.
type fsStats struct {
	mkdir, create, write, sync, close, rename, remove, syncDir, readFile opStats
}

// putNS sums the nanoseconds of every operation of the store's commit
// protocol (create, write, fsync, close, rename, directory fsync).
func (s *fsStats) putNS() int64 {
	return s.create.ns.Load() + s.write.ns.Load() + s.sync.ns.Load() +
		s.close.ns.Load() + s.rename.ns.Load() + s.syncDir.ns.Load()
}

// timedFS is a store.FS that passes every call through to the wrapped
// FS, counting and timing it. With a tracer each call is also a span
// under the span ID held in parent.
type timedFS struct {
	fs     store.FS
	st     *fsStats
	tr     *tracer
	parent atomic.Int64
}

func (f *timedFS) time(o *opStats, name string, bytes int, start time.Time) {
	end := time.Now()
	o.add(int64(end.Sub(start)), bytes)
	if f.tr != nil {
		f.tr.record(name, int(f.parent.Load()), 0, int64(start.Sub(f.tr.epoch)), int64(end.Sub(f.tr.epoch)))
	}
}

func (f *timedFS) MkdirAll(dir string) error {
	start := time.Now()
	err := f.fs.MkdirAll(dir)
	f.time(&f.st.mkdir, "store.mkdir", 0, start)
	return err
}

func (f *timedFS) Create(name string) (store.File, error) {
	start := time.Now()
	file, err := f.fs.Create(name)
	f.time(&f.st.create, "store.create", 0, start)
	if err != nil {
		return nil, err
	}
	return &timedFile{file: file, fs: f}, nil
}

func (f *timedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := f.fs.ReadFile(name)
	f.time(&f.st.readFile, "store.read", len(data), start)
	return data, err
}

func (f *timedFS) Rename(oldname, newname string) error {
	start := time.Now()
	err := f.fs.Rename(oldname, newname)
	f.time(&f.st.rename, "store.rename", 0, start)
	return err
}

func (f *timedFS) Remove(name string) error {
	start := time.Now()
	err := f.fs.Remove(name)
	f.time(&f.st.remove, "store.remove", 0, start)
	return err
}

func (f *timedFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.fs.SyncDir(dir)
	f.time(&f.st.syncDir, "store.syncdir", 0, start)
	return err
}

// timedFile times the writable handle timedFS.Create returns.
type timedFile struct {
	file store.File
	fs   *timedFS
}

func (w *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.file.Write(p)
	w.fs.time(&w.fs.st.write, "store.write", n, start)
	return n, err
}

func (w *timedFile) Sync() error {
	start := time.Now()
	err := w.file.Sync()
	w.fs.time(&w.fs.st.sync, "store.fsync", 0, start)
	return err
}

func (w *timedFile) Close() error {
	start := time.Now()
	err := w.file.Close()
	w.fs.time(&w.fs.st.close, "store.close", 0, start)
	return err
}
