package main

import (
	"math/rand"
	"runtime"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/object"
	"revelation/internal/query"
)

// paperSizes is the paper-cold workload: the paper's database shape
// (3-level binary trees, 7 components) unclustered on the in-memory
// simulated disk, a pool smaller than the data, the paper's largest
// elevator window, and one client running queries of uniformly drawn
// roots. Each epoch starts with an empty pool and the head parked, and
// runs the same Queries root sets, so every epoch's counters repeat.
type paperSizes struct {
	Objects, Frames, Window, Roots, Queries int
}

var paperCold = paperSizes{Objects: 4000, Frames: 256, Window: 200, Roots: 400, Queries: 10}

type paperEnv struct {
	sz   paperSizes
	db   *gen.Database
	sets [][]object.OID
	want []digest // oracle digests per root set, once computed
}

func buildPaper(sz paperSizes, seed int64) (*paperEnv, error) {
	db, err := gen.Build(gen.Config{
		NumComplexObjects: sz.Objects,
		Clustering:        gen.Unclustered,
		BufferPages:       sz.Frames,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	e := &paperEnv{sz: sz, db: db, sets: drawRootSets(rng, db.Roots, sz.Queries, sz.Roots)}
	// Warm-up: one full epoch, so code paths and the allocator are hot.
	var ph phase
	if err := e.epoch(nil, nil, &ph, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// oracle fingerprints every root set with query.NaiveExec.
func (e *paperEnv) oracle() error {
	hashes, err := oracleHashes(e.db.Device, e.db.Store, e.db.Template, e.db.Roots)
	if err != nil {
		return err
	}
	for _, s := range e.sets {
		e.want = append(e.want, expected(hashes, s))
	}
	return nil
}

// epoch runs the root sets once from an empty pool, adding to ph. With
// rep non-nil, every result is checked against the oracle and, traced,
// every wrapper count against its layer's counter.
func (e *paperEnv) epoch(tr *tracer, n *counts, ph *phase, rep *report) error {
	var dev disk.Device = e.db.Device
	var dw *devWrap
	if tr != nil {
		dw = wrapDevice(dev, tr, nil, "disk")
		dev = dw
	}
	pool := buffer.New(dev, e.sz.Frames, buffer.LRU)
	store := object.NewStore(openFile(pool, e.db.Store), e.db.Store.Locator, e.db.Store.Catalog)
	e.db.Device.ResetHead()
	snap := snapDevices(e.db.Device)
	var det detCounts
	var lookups0, handed0 int64
	if n != nil {
		lookups0, handed0 = n.lookups.Load(), n.handed.Load()
	}
	opts := assembly.Options{Window: e.sz.Window, Scheduler: assembly.Elevator}
	busy0 := ph.busy
	mem := startMem()
	for i, roots := range e.sets {
		q := &query.Query{Template: e.db.Template, Roots: roots}
		ph.attempted++
		out, lat, err := timedQuery(tr, n, uint64(ph.queries+1), store, q, opts)
		if err != nil {
			return err
		}
		ph.addQuery(out, lat, lat, len(roots))
		det.addQuery(out)
		if rep != nil && out.digest != e.want[i] {
			rep.fail("paper-cold: query %d result %+v, oracle %+v", i, out.digest, e.want[i])
		}
	}
	mem.stop(ph)
	ph.addRate(det.Asm.Assembled, ph.busy-busy0)
	det.Dev = snap.delta()
	det.Pool = poolDelta(pool.Stats(), buffer.Stats{})
	ph.addEpoch(det, rep)
	if dw != nil && rep != nil {
		agree(rep, "disk reads (wrapper vs disk.Stats)", dw.reads.Load(), det.Dev.Reads)
		agree(rep, "disk writes (wrapper vs disk.Stats)", dw.writes.Load(), det.Dev.Writes)
		agree(rep, "buffer faults vs disk reads under the pool", det.Pool.Faults, dw.reads.Load())
		agree(rep, "buffer flushes vs disk writes under the pool", det.Pool.Flushes, dw.writes.Load())
		agree(rep, "assembly Fetched vs locator lookups", det.Asm.Fetched, n.lookups.Load()-lookups0)
		agree(rep, "assembly Fetched vs scheduler hand-outs", det.Asm.Fetched, n.handed.Load()-handed0)
	}
	return nil
}

// measure runs whole epochs until d has passed.
func (e *paperEnv) measure(d time.Duration, tr *tracer, n *counts, rep *report) (*phase, error) {
	ph := &phase{}
	runtime.GC()
	deadline := time.Now().Add(d)
	for ph.epochs == 0 || time.Now().Before(deadline) {
		if err := e.epoch(tr, n, ph, rep); err != nil {
			return nil, err
		}
	}
	ph.heapMB = liveHeapMB()
	runtime.KeepAlive(e)
	return ph, nil
}

func runPaperCold(cfg runConfig) (*report, error) {
	defer oneProcessor()()
	rep := &report{}
	env, setupS, err := repeatSetup(setups, func() (*paperEnv, error) { return buildPaper(paperCold, cfg.seed) }, func(*paperEnv) {})
	if err != nil {
		return nil, err
	}
	if err := env.oracle(); err != nil {
		return nil, err
	}
	rep.note("paper-cold: %d objects on %d pages, pool %d frames, window %d, %d queries of %d roots per epoch, closed loop, 1 client",
		env.sz.Objects, env.db.DataPages, env.sz.Frames, env.sz.Window, env.sz.Queries, env.sz.Roots)
	return measureWorkload(cfg, rep, setupS, func(d time.Duration, tr *tracer, n *counts) (*phase, error) {
		return env.measure(d, tr, n, rep)
	})
}
