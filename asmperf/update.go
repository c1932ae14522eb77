package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/expr"
	"revelation/internal/gen"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/query"
	"revelation/internal/wal"
)

// updateSizes is the update-mix workload: the paper's shape with a
// small database and a pool that holds all of it, a WAL on its own
// simulated device, and one client alternating a write batch with
// Reads predicate queries. A write batch updates Updates leaf integers
// in place and appends Appends new complex objects into preallocated
// headroom, then flushes the pool, which forces the log before the
// data. Each epoch restores the database, starts an empty pool and an
// empty log, and replays the same Cycles cycles, so every epoch's
// counters repeat.
type updateSizes struct {
	Objects, Window, Roots, Cycles, Reads, Updates, Appends int
	// Recent is how many recently written roots a query draws half its
	// roots from.
	Recent int
}

var updateMix = updateSizes{Objects: 1000, Window: 20, Roots: 50, Cycles: 128, Reads: 1, Updates: 48, Appends: 1, Recent: 256}

// objPerPage is how many 96-byte components gen packs per 1 KB page.
const objPerPage = (pageSize - 32) / (96 + 4)

// leafPred is the pushed-down predicate: about half the leaves pass.
var leafPred = expr.IntCmp{Field: 1, Op: expr.LT, Value: 500, Sel: 0.5}

// leafNode is the template node the predicate applies to.
const leafNode = "G"

type updateEnv struct {
	sz    updateSizes
	seed  int64
	db    *gen.Database
	pages [][]byte // the built data device's pages
	rids  []heap.RID
	base  []object.Object // every generated object, indexed by OID
	// leafPaths[i] is the reference-field path from a root to the i-th
	// leaf position.
	leafPaths [][]int
}

func buildUpdate(sz updateSizes, seed int64) (*updateEnv, error) {
	extra := (sz.Cycles*sz.Appends*7+objPerPage-1)/objPerPage + 2
	db, err := gen.Build(gen.Config{
		NumComplexObjects: sz.Objects,
		Clustering:        gen.Unclustered,
		Seed:              seed,
		ExtraPages:        extra,
	})
	if err != nil {
		return nil, err
	}
	e := &updateEnv{sz: sz, seed: seed, db: db}
	for p := 0; p < db.Device.NumPages(); p++ {
		buf := make([]byte, pageSize)
		if err := db.Device.ReadPage(disk.PageID(p), buf); err != nil {
			return nil, err
		}
		e.pages = append(e.pages, buf)
	}
	e.rids = make([]heap.RID, db.NextOID)
	for oid := object.OID(1); oid < db.NextOID; oid++ {
		rid, ok, err := db.Store.WhereIs(oid)
		if err != nil || !ok {
			return nil, fmt.Errorf("locate %v: %v", oid, err)
		}
		e.rids[oid] = rid
	}
	var walk func(p int, path []int)
	walk = func(p int, path []int) {
		if len(db.Children[p]) == 0 {
			e.leafPaths = append(e.leafPaths, append([]int(nil), path...))
		}
		for f, c := range db.Children[p] {
			walk(c, append(path, f))
		}
	}
	walk(0, nil)
	// Warm-up: one full epoch.
	var ph phase
	m, err := e.loadModel()
	if err != nil {
		return nil, err
	}
	if _, err := e.epoch(m, nil, nil, &ph, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// loadModel reads every generated object once: the benchmark's own
// model of the database, which write batches edit and queries are
// checked against.
func (e *updateEnv) loadModel() ([]object.Object, error) {
	if e.base == nil {
		e.base = make([]object.Object, e.db.NextOID)
		for oid := object.OID(1); oid < e.db.NextOID; oid++ {
			o, err := e.db.Store.Get(oid)
			if err != nil {
				return nil, err
			}
			e.base[oid] = *o
		}
	}
	m := make([]object.Object, len(e.base))
	for i, o := range e.base {
		m[i] = object.Object{OID: o.OID, Class: o.Class, Ints: append([]int32(nil), o.Ints...), Refs: o.Refs}
	}
	return m, nil
}

// updState is one epoch's live database.
type updState struct {
	data, walDev disk.Device // the raw devices
	dataW, walW  *devWrap    // their wrappers, traced
	log          *wal.Writer
	pool         *buffer.Pool
	store        *object.Store
	model        []object.Object
	roots        []object.OID
	recent       []object.OID
	next         object.OID
	placed       int // components appended into headroom
	rng          *rand.Rand
	cur          *cursor
}

// restore builds a fresh state from the generated database.
func (e *updateEnv) restore(model []object.Object, tr *tracer, n *counts) (*updState, error) {
	s := &updState{model: model, next: e.db.NextOID, rng: rand.New(rand.NewSource(e.seed + 1))}
	sim := disk.New(0)
	if _, err := sim.Allocate(len(e.pages)); err != nil {
		return nil, err
	}
	for p, buf := range e.pages {
		if err := sim.WritePage(disk.PageID(p), buf); err != nil {
			return nil, err
		}
	}
	s.data, s.walDev = sim, disk.New(0)
	dataDev, walDev := s.data, s.walDev
	if tr != nil {
		s.cur = &cursor{}
		s.dataW = wrapDevice(s.data, tr, s.cur, "disk")
		s.walW = wrapDevice(s.walDev, tr, s.cur, "disk")
		dataDev, walDev = s.dataW, s.walW
	}
	log, err := wal.Open(walDev)
	if err != nil {
		return nil, err
	}
	s.log = log
	s.pool = buffer.New(dataDev, len(e.pages)+128, buffer.LRU)
	if tr != nil {
		s.pool.SetWAL(&walWrap{inner: log, tr: tr, cur: s.cur, n: n})
	} else {
		s.pool.SetWAL(log)
	}
	loc := object.NewMapLocator()
	for oid := object.OID(1); oid < e.db.NextOID; oid++ {
		if err := loc.Register(oid, e.rids[oid]); err != nil {
			return nil, err
		}
	}
	s.store = object.NewStore(openFile(s.pool, e.db.Store), loc, e.db.Store.Catalog)
	s.roots = append([]object.OID(nil), e.db.Roots...)
	s.data.ResetHead()
	s.walDev.ResetHead()
	return s, nil
}

// pick returns a root: half the time a recently written one.
func (s *updState) pick() object.OID {
	if len(s.recent) > 0 && s.rng.Intn(2) == 0 {
		return s.recent[s.rng.Intn(len(s.recent))]
	}
	return s.roots[s.rng.Intn(len(s.roots))]
}

func (s *updState) touch(root object.OID, keep int) {
	s.recent = append(s.recent, root)
	if len(s.recent) > keep {
		s.recent = s.recent[1:]
	}
}

// leafOf follows path from root through the model.
func (s *updState) leafOf(root object.OID, path []int) object.OID {
	oid := root
	for _, f := range path {
		oid = s.model[oid].Refs[f]
	}
	return oid
}

// modelHash is the hash of root's complex object in the model, and
// whether it passes the leaf predicate.
func (e *updateEnv) modelHash(model []object.Object, root object.OID) (uint64, bool) {
	var h uint64
	pass := true
	var visit func(oid object.OID, node *assembly.Template)
	visit = func(oid object.OID, node *assembly.Template) {
		o := &model[oid]
		h = mix(h, uint64(oid))
		for _, v := range o.Ints {
			h = mix(h, uint64(uint32(v)))
		}
		if node.Name == leafNode && !leafPred.Eval(o) {
			pass = false
		}
		for _, c := range node.Children {
			visit(o.Refs[c.RefField], c)
		}
	}
	visit(root, e.db.Template)
	return h, pass
}

// writeBatch runs one timed write batch and returns its latency and the
// encoded size of the records it wrote. With flush false it syncs the
// log instead of flushing the pool: the batch is acknowledged by the
// log alone.
func (e *updateEnv) writeBatch(s *updState, tr *tracer, n *counts, flush bool) (time.Duration, int64, error) {
	var written []*object.Object
	root := tr.root("bench.write", 0)
	s.cur.set(root)
	store := storeFor(s.store, tr, s.cur, n)
	t0 := time.Now()
	for i := 0; i < e.sz.Updates; i++ {
		r := s.pick()
		leaf := s.leafOf(r, e.leafPaths[s.rng.Intn(len(e.leafPaths))])
		m := &s.model[leaf]
		m.Ints[1] = int32(s.rng.Intn(1000))
		o := &object.Object{OID: leaf, Class: m.Class, Ints: append([]int32(nil), m.Ints...), Refs: m.Refs}
		sp := tr.child(root, "object.update")
		err := store.Update(o)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		written = append(written, o)
		s.touch(r, e.sz.Recent)
	}
	for a := 0; a < e.sz.Appends; a++ {
		oids := make([]object.OID, len(e.db.Positions))
		for p := range oids {
			oids[p] = s.next
			s.next++
		}
		for p, cls := range e.db.Positions {
			o := &object.Object{
				OID:   oids[p],
				Class: cls.ID,
				Ints:  []int32{int32(oids[p]), int32(s.rng.Intn(1000)), int32(oids[0]), int32(p)},
				Refs:  make([]object.OID, 8),
			}
			for f, c := range e.db.Children[p] {
				o.Refs[f] = oids[c]
			}
			sp := tr.child(root, "object.put")
			_, err := store.PutAt(o, e.db.DataPages+s.placed/objPerPage)
			sp.end()
			if err != nil {
				return 0, 0, err
			}
			s.placed++
			s.model = append(s.model, *o)
			written = append(written, o)
		}
		s.roots = append(s.roots, oids[0])
		s.touch(oids[0], e.sz.Recent)
	}
	var err error
	if flush {
		err = s.pool.FlushAll()
	} else {
		err = s.log.Sync()
	}
	lat := time.Since(t0)
	root.end()
	s.cur.set(nil)
	if err != nil {
		return lat, 0, err
	}
	var user int64
	for _, o := range written {
		rec, err := object.Encode(o)
		if err != nil {
			return lat, 0, err
		}
		user += int64(len(rec))
	}
	return lat, user, nil
}

// readQuery runs one timed predicate query and checks it against the
// model.
func (e *updateEnv) readQuery(s *updState, tr *tracer, n *counts, qid uint64, rep *report) (queryOut, time.Duration, int, error) {
	roots := make([]object.OID, e.sz.Roots)
	for i := range roots {
		roots[i] = s.pick()
	}
	q := &query.Query{Template: e.db.Template, Roots: roots, NodePreds: map[string]expr.Predicate{leafNode: leafPred}}
	opts := assembly.Options{Window: e.sz.Window, Scheduler: assembly.Elevator}
	root := tr.root("bench.query", qid)
	s.cur.set(root)
	t0 := time.Now()
	items, st, err := runQuery(withSpan(context.Background(), root), tr, n, root, s.store, q, opts)
	lat := time.Since(t0)
	root.end()
	s.cur.set(nil)
	if err != nil {
		return queryOut{}, lat, 0, err
	}
	d, comps, err := resultDigest(items)
	if err != nil {
		return queryOut{}, lat, 0, err
	}
	if rep != nil {
		var want digest
		for _, r := range roots {
			if h, ok := e.modelHash(s.model, r); ok {
				want.add(h)
			}
		}
		if d != want {
			rep.fail("update-mix: query %d result %+v, model %+v", qid, d, want)
		}
	}
	return queryOut{digest: d, comps: comps, stats: st}, lat, len(roots), nil
}

// epoch replays the cycles from a restored database, adding to ph, and
// returns the final state for the durability check.
func (e *updateEnv) epoch(model []object.Object, tr *tracer, n *counts, ph *phase, rep *report) (*updState, error) {
	s, err := e.restore(model, tr, n)
	if err != nil {
		return nil, err
	}
	snap := snapDevices(s.data, s.walDev)
	var det detCounts
	busy0 := ph.busy
	mem := startMem()
	for c := 0; c < e.sz.Cycles; c++ {
		ph.attempted++
		lat, user, err := e.writeBatch(s, tr, n, true)
		if err != nil {
			return nil, err
		}
		ph.batches++
		ph.wlat = append(ph.wlat, lat)
		ph.busy += lat
		det.Ops++
		det.UserBytes += user
		for r := 0; r < e.sz.Reads; r++ {
			ph.attempted++
			out, lat, nroots, err := e.readQuery(s, tr, n, uint64(ph.queries+1), rep)
			if err != nil {
				return nil, err
			}
			ph.addQuery(out, lat, lat, nroots)
			det.addQuery(out)
		}
	}
	mem.stop(ph)
	ph.addRate(det.Asm.Assembled, ph.busy-busy0)
	det.Dev = snap.delta()
	det.Pool = poolDelta(s.pool.Stats(), buffer.Stats{})
	ph.addEpoch(det, rep)
	if s.dataW != nil && rep != nil {
		agree(rep, "data disk reads (wrapper vs disk.Stats)", s.dataW.reads.Load(), s.data.Stats().Reads)
		agree(rep, "data disk writes (wrapper vs disk.Stats)", s.dataW.writes.Load(), s.data.Stats().Writes-int64(len(e.pages)))
		agree(rep, "WAL disk writes (wrapper vs disk.Stats)", s.walW.writes.Load(), s.walDev.Stats().Writes)
		agree(rep, "buffer faults vs data disk reads under the pool", det.Pool.Faults, s.dataW.reads.Load())
		agree(rep, "buffer flushes vs data disk writes under the pool", det.Pool.Flushes, s.dataW.writes.Load())
	}
	return s, nil
}

// durability acknowledges one batch by the log alone, runs another that
// is never acknowledged, drops the pool and the log writer unflushed,
// recovers the data device from the log, and checks that every
// acknowledged write reads back from a fresh pool. Records the lost
// batch touched may hold either their acknowledged or their lost
// value.
func (e *updateEnv) durability(s *updState, rep *report) error {
	// Unwrapped, so the check adds nothing to a traced phase's numbers.
	s.pool.SetWAL(s.log)
	if _, _, err := e.writeBatch(s, nil, nil, false); err != nil {
		return err
	}
	acked := make([]object.Object, len(s.model))
	for i, o := range s.model {
		acked[i] = object.Object{OID: o.OID, Class: o.Class, Ints: append([]int32(nil), o.Ints...), Refs: o.Refs}
	}
	ackedRoots := len(s.roots)
	for i := 0; i < e.sz.Updates; i++ {
		r := s.roots[s.rng.Intn(ackedRoots)]
		leaf := s.leafOf(r, e.leafPaths[s.rng.Intn(len(e.leafPaths))])
		m := &s.model[leaf]
		m.Ints[1] = int32(1000 + s.rng.Intn(1000))
		if err := s.store.Update(&object.Object{OID: leaf, Class: m.Class, Ints: append([]int32(nil), m.Ints...), Refs: m.Refs}); err != nil {
			return err
		}
	}
	// Crash: the pool and the writer are dropped without a flush.
	if _, err := wal.Recover(s.walDev, s.data, wal.Options{}); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	pool := buffer.New(s.data, len(e.pages)+128, buffer.LRU)
	file := openFile(pool, e.db.Store)
	loc := object.NewMapLocator()
	if err := file.Scan(func(rid heap.RID, rec []byte) bool {
		oid, err := object.PeekOID(rec)
		if err == nil {
			err = loc.Register(oid, rid)
		}
		if err != nil {
			rep.fail("update-mix: recovered record at %v: %v", rid, err)
			return false
		}
		return true
	}); err != nil {
		return err
	}
	if n, _ := loc.Len(); n != len(acked)-1 {
		rep.fail("update-mix: %d records after recovery, %d acknowledged", n, len(acked)-1)
	}
	store := object.NewStore(file, loc, e.db.Store.Catalog)
	for oid := object.OID(1); int(oid) < len(acked); oid++ {
		got, err := store.Get(oid)
		if err != nil {
			rep.fail("update-mix: acknowledged %v lost after recovery: %v", oid, err)
			continue
		}
		if !sameObject(got, &acked[oid]) && !sameObject(got, &s.model[oid]) {
			rep.fail("update-mix: %v after recovery %v, acknowledged %v", oid, got.Ints, acked[oid].Ints)
		}
	}
	// The recovered database must also agree with query.NaiveExec.
	insts, err := query.NaiveExec(store, &query.Query{Template: e.db.Template, Roots: s.roots[:ackedRoots]})
	if err != nil {
		return err
	}
	for _, in := range insts {
		want, _ := e.modelHash(acked, in.OID())
		alt, _ := e.modelHash(s.model, in.OID())
		if h := instHash(in); h != want && h != alt {
			rep.fail("update-mix: NaiveExec of %v after recovery differs from the model", in.OID())
		}
	}
	return nil
}

func sameObject(a, b *object.Object) bool {
	if a.OID != b.OID || a.Class != b.Class || len(a.Ints) != len(b.Ints) || len(a.Refs) != len(b.Refs) {
		return false
	}
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			return false
		}
	}
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			return false
		}
	}
	return true
}

// measure runs whole epochs until d has passed, then the durability
// check on the last epoch's database.
func (e *updateEnv) measure(d time.Duration, tr *tracer, n *counts, rep *report) (*phase, error) {
	ph := &phase{}
	runtime.GC()
	deadline := time.Now().Add(d)
	var last *updState
	for ph.epochs == 0 || time.Now().Before(deadline) {
		m, err := e.loadModel()
		if err != nil {
			return nil, err
		}
		if last, err = e.epoch(m, tr, n, ph, rep); err != nil {
			return nil, err
		}
	}
	ph.heapMB = liveHeapMB()
	if tr != nil {
		e.layerExtras(ph, tr, n)
	}
	if err := e.durability(last, rep); err != nil {
		return nil, err
	}
	runtime.KeepAlive(e)
	return ph, nil
}

// layerExtras adds the object-write and WAL per-layer numbers of a
// traced phase.
func (e *updateEnv) layerExtras(ph *phase, tr *tracer, n *counts) {
	b := float64(ph.batches)
	upd, put := tr.agg("object.update"), tr.agg("object.put")
	app, syn := tr.agg("wal.append"), tr.agg("wal.sync")
	add := func(name string, v float64, unit string) { ph.extra = append(ph.extra, metric{name, v, unit}) }
	add("object.update_us", ratio(us(upd.Total), float64(upd.Count)), "us")
	add("object.put_us", ratio(us(put.Total), float64(put.Count)), "us")
	add("wal.syncs", ratio(float64(n.walSyncs.Load()), b), "count/batch")
	add("wal.append_us", ratio(us(app.Total), float64(app.Count)), "us")
	add("wal.sync_us", ratio(us(syn.Total), float64(syn.Count)), "us")
	add("wal.sync_p99_us", us(syn.Durs.percentile(0.99).Value), "us")
	add("wal.log_bytes_per_user_byte", ratio(float64(n.walBytes.Load()), float64(ph.first.UserBytes)*float64(ph.epochs)), "B/B")
}

func runUpdateMix(cfg runConfig) (*report, error) {
	defer oneProcessor()()
	rep := &report{}
	env, setupS, err := repeatSetup(setups, func() (*updateEnv, error) { return buildUpdate(updateMix, cfg.seed) }, func(*updateEnv) {})
	if err != nil {
		return nil, err
	}
	rep.note("update-mix: %d objects on %d pages (+%d headroom), pool holds all, window %d; per cycle 1 write batch (%d updates, %d appends, flush) then %d queries of %d roots, %d cycles per epoch, closed loop, 1 client",
		env.sz.Objects, env.db.DataPages, len(env.pages)-env.db.DataPages, env.sz.Window, env.sz.Updates, env.sz.Appends, env.sz.Reads, env.sz.Roots, env.sz.Cycles)
	return measureWorkload(cfg, rep, setupS, func(d time.Duration, tr *tracer, n *counts) (*phase, error) {
		return env.measure(d, tr, n, rep)
	})
}
