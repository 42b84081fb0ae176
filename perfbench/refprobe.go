package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// The reference probe measures how fast the host runs this process at
// the moment. On a shared VM the neighbours' load changes the CPU time
// of the same work by a fifth or more from one half-minute to the next;
// the probe's CPU time moves with it, so a CPU time divided by the
// run's probe slowdown (reference seconds) compares between runs.
//
// The probe's work is a fixed mix of standard-library code, frozen with
// the toolchain and untouched by changes to this repository: JSON
// encoding and decoding, DEFLATE, map inserts, a sort and small pipe
// writes and reads. Like the workloads it branches, spreads over much
// code, allocates and enters the kernel; a tight loop over a large table
// followed the workloads' CPU time less closely (see README.md).

// refNominal is the probe's CPU time on the host the benchmark was
// sized on (a two-vCPU Intel Xeon VM, under its usual neighbours). It
// only sets the scale of a reference second.
const refNominal = 11e-3

// probeGap is the least time between two probes of a measured phase.
const probeGap = 250 * time.Millisecond

// probeTimes holds every probe CPU time of this run.
var probeTimes []float64

// probeRecord is one row of the probe's JSON work.
type probeRecord struct {
	ID    int                `json:"id"`
	Name  string             `json:"name"`
	Tags  []string           `json:"tags"`
	Attrs map[string]float64 `json:"attrs"`
}

// probeText is the probe's input: 32 KiB of seeded text.
var probeText = func() []byte {
	b := make([]byte, 32<<10)
	x := uint64(7)
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = "abcdefgh  \n01234"[x>>60]
	}
	return b
}()

// probeState is what the probe's work reuses from one run to the next,
// so that the probe adds a fixed amount to the heap and the RSS.
type probeState struct {
	buf  bytes.Buffer
	fw   *flate.Writer
	m    map[uint64]uint64
	keys []uint64
	sink int
}

var probe probeState

// work is the probe's fixed piece of work.
func (p *probeState) work(r, w *os.File) error {
	recs := make([]probeRecord, 200)
	for i := range recs {
		recs[i] = probeRecord{ID: i, Name: string(probeText[i : i+12]), Tags: []string{"a", "bb", string(probeText[i : i+5])},
			Attrs: map[string]float64{"x": float64(i), "y": 1.5}}
	}
	js, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	var back []probeRecord
	if err := json.Unmarshal(js, &back); err != nil {
		return err
	}

	p.buf.Reset()
	if p.fw == nil {
		if p.fw, err = flate.NewWriter(&p.buf, 5); err != nil {
			return err
		}
	} else {
		p.fw.Reset(&p.buf)
	}
	if _, err := p.fw.Write(probeText); err != nil {
		return err
	}
	if err := p.fw.Close(); err != nil {
		return err
	}

	if p.m == nil {
		p.m = make(map[uint64]uint64)
	}
	clear(p.m)
	x := uint64(3)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.m[x>>40] += x
	}
	p.keys = p.keys[:0]
	for k := range p.m {
		p.keys = append(p.keys, k)
	}
	keys := p.keys
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i]%1000, keys[j]%1000
		return a < b || (a == b && keys[i] < keys[j])
	})

	var msg [64]byte
	for i := 0; i < 200; i++ {
		if _, err := w.Write(msg[:]); err != nil {
			return err
		}
		if _, err := r.Read(msg[:]); err != nil {
			return err
		}
	}
	p.sink += len(back) + p.buf.Len() + int(keys[0]%2)
	return nil
}

// refProbe runs the probe's work three times and records the median
// CPU time in probeTimes.
func refProbe() error {
	r, w, err := os.Pipe()
	if err != nil {
		return fmt.Errorf("reference probe: %w", err)
	}
	defer r.Close()
	defer w.Close()
	var times [3]float64
	for k := range times {
		t := startTimer()
		if err := probe.work(r, w); err != nil {
			return fmt.Errorf("reference probe: %w", err)
		}
		times[k] = t.stop(0).cpu
	}
	probeTimes = append(probeTimes, median(times[:]))
	return nil
}

// hostSlowdown is how much slower than refNominal the probe ran over
// this run: the median of its times over refNominal. One factor per run
// and not one per repetition, because within a run the probe follows
// the load too loosely to correct each repetition. setupSeconds and
// measure have probed before it is called.
func hostSlowdown() float64 {
	return median(slices.Clone(probeTimes)) / refNominal
}
