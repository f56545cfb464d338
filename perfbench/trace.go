package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"supmr"
	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
	"supmr/internal/storage"
)

// This file holds the benchmark's own instrumentation: decorators around
// everything the supmr API accepts from a caller (inputs, the clock,
// devices, the job and its container). Each decorator records spans and
// counts at the layer boundary and forwards every optional trait the
// program type-asserts, so a traced run executes the same program as an
// untraced one.

// span is one timed call at a layer boundary. Job names the RunFile call
// that caused it (0: a shared device or clock in engine mode, where the
// caller of a wait is not known).
type span struct {
	Name  string `json:"name"`
	Job   int64  `json:"job"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer collects the spans and per-layer counters of one traced window.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	waits, waitNS          atomic.Int64 // Clock.SleepUntil calls that blocked
	readBytes, writeBytes  atomic.Int64 // Device.Reserve / ReserveWrite payload
	readAtCalls, readAtNS  atomic.Int64 // Input.ReadAt and IssueReadAt waits
	mapCalls, mapNS, mapIn atomic.Int64 // Job.Map / MapBytes
	reduceCalls, reduceNS  atomic.Int64 // Job.Reduce
	entries, contReduceNS  atomic.Int64 // Container.Reduce
	resets                 atomic.Int64 // Container.Reset
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends a span ending now and returns its duration.
func (t *tracer) record(name string, job, start int64) int64 {
	end := t.now()
	t.add(span{Name: name, Job: job, Start: start, End: end})
	return end - start
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeSpans writes the spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHub is what the shared decorators (clock, devices) consult: the
// active tracer, nil while untraced, and the solo job in flight.
type traceHub struct {
	tr  atomic.Pointer[tracer]
	job atomic.Int64
}

func (h *traceHub) active() *tracer {
	if h == nil {
		return nil
	}
	return h.tr.Load()
}

// tracedClock times every SleepUntil that blocks: the device waits.
type tracedClock struct {
	inner supmr.Clock
	hub   *traceHub
}

func (c *tracedClock) Now() time.Duration { return c.inner.Now() }

func (c *tracedClock) SleepUntil(t time.Duration) {
	tr := c.hub.active()
	if tr == nil || t <= c.inner.Now() {
		c.inner.SleepUntil(t)
		return
	}
	start := tr.now()
	c.inner.SleepUntil(t)
	tr.waits.Add(1)
	tr.waitNS.Add(tr.record("storage.wait", c.hub.job.Load(), start))
}

// tracedDevice counts the bytes booked on a device. It forwards the
// write path; fallible devices are refused because their TryReserve is
// not forwarded.
type tracedDevice struct {
	inner supmr.Device
	w     storage.Writer
	hub   *traceHub
}

func wrapDevice(dev supmr.Device, hub *traceHub) (supmr.Device, error) {
	w, ok := dev.(storage.Writer)
	if !ok {
		return nil, fmt.Errorf("perfbench: device %T has no write path to forward", dev)
	}
	if _, ok := dev.(storage.FallibleDevice); ok {
		return nil, fmt.Errorf("perfbench: fallible device %T is not forwarded", dev)
	}
	return &tracedDevice{inner: dev, w: w, hub: hub}, nil
}

func (d *tracedDevice) Reserve(off, n int64) time.Duration {
	if tr := d.hub.active(); tr != nil {
		tr.readBytes.Add(n)
	}
	return d.inner.Reserve(off, n)
}

func (d *tracedDevice) ReserveWrite(off, n int64) time.Duration {
	if tr := d.hub.active(); tr != nil {
		tr.writeBytes.Add(n)
	}
	return d.w.ReserveWrite(off, n)
}

func (d *tracedDevice) Clock() supmr.Clock         { return d.inner.Clock() }
func (d *tracedDevice) Bandwidth() float64         { return d.inner.Bandwidth() }
func (d *tracedDevice) Stats() storage.DeviceStats { return d.inner.Stats() }

// issueInput is an input with the two-phase read the multi-lane ingest
// path asserts (chunk.IssueReader).
type issueInput interface {
	supmr.Input
	chunk.IssueReader
}

// tracedInput times every read of one job's input.
type tracedInput struct {
	inner issueInput
	tr    *tracer
	job   int64
}

func wrapInput(in supmr.Input, tr *tracer, job int64) (supmr.Input, error) {
	ii, ok := in.(issueInput)
	if !ok {
		return nil, fmt.Errorf("perfbench: input %T has no two-phase read to forward", in)
	}
	return &tracedInput{inner: ii, tr: tr, job: job}, nil
}

func (in *tracedInput) Name() string { return in.inner.Name() }
func (in *tracedInput) Size() int64  { return in.inner.Size() }

func (in *tracedInput) ReadAt(p []byte, off int64) (int, error) {
	start := in.tr.now()
	n, err := in.inner.ReadAt(p, off)
	in.done(start)
	return n, err
}

func (in *tracedInput) IssueReadAt(p []byte, off int64) (func() (int, error), error) {
	wait, err := in.inner.IssueReadAt(p, off)
	if err != nil {
		return nil, err
	}
	return func() (int, error) {
		start := in.tr.now()
		n, err := wait()
		in.done(start)
		return n, err
	}, nil
}

func (in *tracedInput) done(start int64) {
	in.tr.readAtCalls.Add(1)
	in.tr.readAtNS.Add(in.tr.record("chunk.readat", in.job, start))
}

// tracedJob times one job's Map and Reduce callbacks. Reduce runs once
// per key, so it is counted and timed but records no span.
type tracedJob[K comparable, V any] struct {
	inner supmr.Job[K, V]
	tr    *tracer
	job   int64
}

func (j *tracedJob[K, V]) Map(split []byte, emit supmr.Emitter[K, V]) {
	start := j.tr.now()
	j.inner.Map(split, emit)
	j.mapped(start, len(split))
}

func (j *tracedJob[K, V]) mapped(start int64, n int) {
	j.tr.mapCalls.Add(1)
	j.tr.mapIn.Add(int64(n))
	j.tr.mapNS.Add(j.tr.record("apps.map", j.job, start))
}

func (j *tracedJob[K, V]) Reduce(key K, vals []V) V {
	start := time.Now()
	v := j.inner.Reduce(key, vals)
	j.tr.reduceNS.Add(int64(time.Since(start)))
	j.tr.reduceCalls.Add(1)
	return v
}

func (j *tracedJob[K, V]) Less(a, b K) bool { return j.inner.Less(a, b) }

// bytesCombJob is the decorator for jobs with the zero-allocation map
// path and a combiner (word count, grep).
type bytesCombJob[K comparable, V any] struct {
	tracedJob[K, V]
	bytes kv.BytesApp[V]
	comb  kv.Combiner[V]
}

func (j *bytesCombJob[K, V]) MapBytes(split []byte, emit kv.BytesEmitter[V]) {
	start := j.tr.now()
	j.bytes.MapBytes(split, emit)
	j.mapped(start, len(split))
}

func (j *bytesCombJob[K, V]) Combine(a, b V) V { return j.comb.Combine(a, b) }

// fixedKeyJob is the decorator for jobs on the radix sort path (sort).
type fixedKeyJob[K comparable, V any] struct {
	tracedJob[K, V]
	fixed kv.FixedKeyApp[K]
}

func (j *fixedKeyJob[K, V]) FixedKey() kv.FixedKeyCodec[K] { return j.fixed.FixedKey() }

// wrapJob decorates job with exactly its own trait set. A trait set no
// decorator reproduces is an error, never a silently different program.
func wrapJob[K comparable, V any](job supmr.Job[K, V], tr *tracer, id int64) (supmr.Job[K, V], error) {
	base := tracedJob[K, V]{inner: job, tr: tr, job: id}
	ba, isBytes := job.(kv.BytesApp[V])
	cb, isComb := job.(kv.Combiner[V])
	fk, isFixed := job.(kv.FixedKeyApp[K])
	_, isChunkAware := job.(interface{ SetData(*chunk.Chunk) })
	switch {
	case isChunkAware:
	case isBytes && isComb && !isFixed:
		return &bytesCombJob[K, V]{tracedJob: base, bytes: ba, comb: cb}, nil
	case isFixed && !isBytes && !isComb:
		return &fixedKeyJob[K, V]{tracedJob: base, fixed: fk}, nil
	}
	return nil, fmt.Errorf("perfbench: no faithful decorator for job %T", job)
}

// sizedContainer is a container with the traits every built-in has:
// reduce-buffer presizing and same-shape cloning.
type sizedContainer[K comparable, V any] interface {
	supmr.Container[K, V]
	container.PartitionSizer
	container.Fresher[K, V]
}

// tracedCont times one job's container reduce and reset calls. NewLocal
// returns the inner local unchanged so the map path keeps its
// BytesEmitter.
type tracedCont[K comparable, V any] struct {
	inner sizedContainer[K, V]
	tr    *tracer
	job   int64
}

func wrapCont[K comparable, V any](c supmr.Container[K, V], tr *tracer, id int64) (supmr.Container[K, V], error) {
	sc, ok := c.(sizedContainer[K, V])
	if !ok {
		return nil, fmt.Errorf("perfbench: container %T lacks PartitionLen or Fresh", c)
	}
	if _, ok := c.(container.Unspillable); ok {
		return nil, fmt.Errorf("perfbench: unspillable container %T is not forwarded", c)
	}
	return &tracedCont[K, V]{inner: sc, tr: tr, job: id}, nil
}

func (c *tracedCont[K, V]) NewLocal() container.Local[K, V] { return c.inner.NewLocal() }

func (c *tracedCont[K, V]) Partitions() int { return c.inner.Partitions() }

func (c *tracedCont[K, V]) Reduce(p int, reduce func(K, []V) V, out []supmr.Pair[K, V]) []supmr.Pair[K, V] {
	start := c.tr.now()
	n := len(out)
	out = c.inner.Reduce(p, reduce, out)
	c.tr.entries.Add(int64(len(out) - n))
	c.tr.contReduceNS.Add(c.tr.record("container.reduce", c.job, start))
	return out
}

func (c *tracedCont[K, V]) Len() int { return c.inner.Len() }

func (c *tracedCont[K, V]) SizeBytes() int64 { return c.inner.SizeBytes() }

func (c *tracedCont[K, V]) Reset() {
	start := c.tr.now()
	c.inner.Reset()
	c.tr.resets.Add(1)
	c.tr.record("container.reset", c.job, start)
}

func (c *tracedCont[K, V]) PartitionLen(p int) int { return c.inner.PartitionLen(p) }

func (c *tracedCont[K, V]) Fresh() supmr.Container[K, V] {
	return &tracedCont[K, V]{inner: c.inner.Fresh().(sizedContainer[K, V]), tr: c.tr, job: c.job}
}
