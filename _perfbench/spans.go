package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanID names one span of a tracer: the owning buffer in the high 32 bits
// and the 1-based position inside it in the low 32.  Zero means "no span"
// (a root's parent, or any span of a nil tracer).
type spanID int64

// span is one timed call at a layer boundary.  Key is the seed, event or
// package the call served; every span under one root shares it.
type span struct {
	name       string
	id, parent spanID
	key        int64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run ends.  Each goroutine records
// into its own spanBuf, so recording takes no lock; a nil *tracer (and the
// nil *spanBuf it hands out) records nothing, which is the untraced path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

type spanBuf struct {
	tr    *tracer
	index int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf registers a span buffer for one goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{tr: t, index: int64(len(t.bufs))}
	t.bufs = append(t.bufs, b)
	return b
}

// start opens a span under parent and returns its id.
func (b *spanBuf) start(name string, parent spanID, key int64) spanID {
	if b == nil {
		return 0
	}
	return b.add(span{name: name, parent: parent, key: key, start: b.now()})
}

// stop closes a span this buffer opened.
func (b *spanBuf) stop(id spanID) {
	if b == nil || id == 0 {
		return
	}
	b.spans[int(id&0xffffffff)-1].end = b.now()
}

// record adds a span of the given duration that ends now, for a call timed
// elsewhere (in a child process).
func (b *spanBuf) record(name string, parent spanID, key int64, dur time.Duration) {
	if b == nil {
		return
	}
	now := b.now()
	b.add(span{name: name, parent: parent, key: key, start: now - int64(dur), end: now})
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.tr.epoch)) }

// add appends s, assigning its id.
func (b *spanBuf) add(s span) spanID {
	s.id = spanID(b.index<<32 | int64(len(b.spans)+1))
	b.spans = append(b.spans, s)
	return s.id
}

// all returns every recorded span (buffers must no longer be written).
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// layerTimes is the per-name aggregate of a trace: summed self time (a
// span's duration minus the part its children cover), call count, and
// every call's full duration for percentiles.
type layerTimes struct {
	self  map[string]float64   // seconds
	count map[string]int       // calls
	durs  map[string][]float64 // seconds per call
}

func (t *tracer) layers() layerTimes {
	spans := t.all()
	childNs := make(map[spanID]int64, len(spans))
	for _, s := range spans {
		if s.parent != 0 {
			childNs[s.parent] += s.end - s.start
		}
	}
	lt := layerTimes{self: map[string]float64{}, count: map[string]int{}, durs: map[string][]float64{}}
	for _, s := range spans {
		d := s.end - s.start
		lt.self[s.name] += float64(d-childNs[s.id]) / 1e9
		lt.count[s.name]++
		lt.durs[s.name] = append(lt.durs[s.name], float64(d)/1e9)
	}
	return lt
}

// write dumps every span, gzipped, as tab-separated name, id, parent, key,
// start ns and end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "name\tid\tparent\tkey\tstart_ns\tend_ns")
	for _, s := range t.all() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.key, s.start, s.end)
	}
	err = errors.Join(w.Flush(), zw.Close(), f.Close())
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
