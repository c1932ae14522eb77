package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/object"
	"revelation/internal/query"
	"revelation/internal/volcano"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what one run of one workload produced. fail and note may
// be called from concurrent clients; everything else is single-threaded.
type report struct {
	mu                sync.Mutex
	attempted, failed int64
	problems          []string
	e2e               []metric // end-to-end, untraced
	layers            []metric // per-layer, traced
	notes             []string // printed for the reader, not parsed
}

func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) e2eMetric(name string, v float64, unit string) {
	r.e2e = append(r.e2e, metric{name, v, unit})
}

func (r *report) layer(name string, v float64, unit string) {
	r.layers = append(r.layers, metric{name, v, unit})
}

// digest is an order-independent fingerprint of a query result: the
// number of complex objects and the sum of their hashes.
type digest struct {
	N   int64
	Sum uint64
}

func (d *digest) add(h uint64) {
	d.N++
	d.Sum += h
}

// mix folds x into h (a splitmix64 finaliser over h^x).
func mix(h, x uint64) uint64 {
	z := h ^ x
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// instHash hashes an assembled complex object: every component's OID
// and integer fields, in depth-first template order.
func instHash(root *assembly.Instance) uint64 {
	var h uint64
	root.Walk(func(in *assembly.Instance) {
		h = mix(h, uint64(in.OID()))
		for _, v := range in.Object.Ints {
			h = mix(h, uint64(uint32(v)))
		}
	})
	return h
}

// resultDigest fingerprints a drained plan's items and counts their
// components.
func resultDigest(items []volcano.Item) (digest, int64, error) {
	var d digest
	var comps int64
	for _, it := range items {
		in, ok := it.(*assembly.Instance)
		if !ok {
			return d, 0, fmt.Errorf("plan produced %T", it)
		}
		d.add(instHash(in))
		comps += int64(in.Size())
	}
	return d, comps, nil
}

// oracleHashes runs query.NaiveExec over every root with a private
// pool large enough for the whole extent, and returns each root's
// complex-object hash. The caller accounts for the device traffic.
func oracleHashes(dev disk.Device, st *object.Store, tmpl *assembly.Template, roots []object.OID) (map[object.OID]uint64, error) {
	pool := buffer.New(dev, st.File.NumPages()+64, buffer.LRU)
	store := object.NewStore(openFile(pool, st), st.Locator, st.Catalog)
	insts, err := query.NaiveExec(store, &query.Query{Template: tmpl, Roots: roots})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if len(insts) != len(roots) {
		return nil, fmt.Errorf("oracle: %d of %d roots assembled", len(insts), len(roots))
	}
	out := make(map[object.OID]uint64, len(roots))
	for _, in := range insts {
		out[in.OID()] = instHash(in)
	}
	return out, nil
}

// expected sums the oracle hashes of a root set.
func expected(hashes map[object.OID]uint64, roots []object.OID) digest {
	var d digest
	for _, r := range roots {
		d.add(hashes[r])
	}
	return d
}

// drawRootSets draws k sets of n distinct roots each, uniformly.
func drawRootSets(rng *rand.Rand, roots []object.OID, k, n int) [][]object.OID {
	sets := make([][]object.OID, k)
	for i := range sets {
		perm := rng.Perm(len(roots))[:n]
		sets[i] = make([]object.OID, n)
		for j, p := range perm {
			sets[i][j] = roots[p]
		}
	}
	return sets
}

// devCounts are the summed counters of a set of backing devices.
type devCounts struct {
	Reads, Writes, SeekReads, SeekTotal int64
	Modeled                             time.Duration
}

// devSnap remembers device counters so a phase can report deltas.
type devSnap struct {
	devs   []disk.Device
	before []disk.Stats
}

func snapDevices(devs ...disk.Device) devSnap {
	s := devSnap{devs: devs}
	for _, d := range devs {
		s.before = append(s.before, d.Stats())
	}
	return s
}

// delta sums, over the snapshot's devices, the counters accumulated
// since the snapshot and the time model's estimate for them.
func (s devSnap) delta() devCounts {
	var c devCounts
	for i, d := range s.devs {
		st := d.Stats().Sub(s.before[i])
		c.Reads += st.Reads
		c.Writes += st.Writes
		c.SeekReads += st.SeekReads
		c.SeekTotal += st.SeekTotal
		c.Modeled += disk.DefaultTimeModel.Estimate(st)
	}
	return c
}

// memSpan brackets measured operations with runtime.MemStats readings,
// so the allocations of set-up and of the resets between epochs stay
// out of allocs_per_object and bytes_per_object.
type memSpan struct{ before runtime.MemStats }

func startMem() *memSpan {
	m := &memSpan{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop adds the allocations and bytes allocated since start to ph.
func (m *memSpan) stop(ph *phase) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ph.allocs += after.Mallocs - m.before.Mallocs
	ph.bytes += after.TotalAlloc - m.before.TotalAlloc
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// setups is how many times a run builds its environment; setup_s is
// the median, so one slow build does not move it.
const setups = 9

// repeatSetup builds an environment n times, closing all but the last,
// and returns the last with the median build time in seconds.
func repeatSetup[T any](n int, build func() (T, error), closeFn func(T)) (T, float64, error) {
	var env T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(env)
		}
		t0 := time.Now()
		e, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		env = e
	}
	return env, median(secs), nil
}

// oneProcessor runs a single-client closed-loop workload on one
// processor and returns the call that restores the previous setting.
// The client is the only goroutine doing work on these paths; a second
// processor would only host collector workers and idle spinning, and on
// a two-vCPU machine whose vCPUs share a core that slows the client
// itself and made run-to-run latency bimodal. A change that adds
// parallel work inside a query shows on fleet-serve, not on these.
func oneProcessor() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}
