package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/object"
	"revelation/internal/pagesvc"
	"revelation/internal/qtrace"
	"revelation/internal/query"
	"revelation/internal/serve"
	"revelation/internal/shard"
	"revelation/internal/volcano"
)

// fleetSizes is the fleet-serve workload: the paper-cold database
// placed by rendezvous hashing on a shard router over in-process page
// services on TCP loopback, queried through the serve layer's /query
// over HTTP. Arrivals are an open loop at a fixed rate over at most
// Clients connections; a request that comes due while all are busy
// waits in the generator and its latency counts from its due time.
type fleetSizes struct {
	Objects, Frames, Window, Roots, Members, Clients int
	// Sets is how many root sets the queries cycle through; RefQueries
	// is the length of the sequential reference pass the deterministic
	// counters come from; Warmup queries run during set-up.
	Sets, RefQueries, Warmup int
}

var fleetServe = fleetSizes{Objects: 4000, Frames: 256, Window: 16, Roots: 50, Members: 3, Clients: 2, Sets: 64, RefQueries: 60, Warmup: 20}

// fleetRate is the open-loop arrival rate in queries per second: about
// half of what two closed-loop clients sustained (141 queries/s) when
// the benchmark was added.
const fleetRate = 70

// stashed is a query's result, held between the handler and the client
// so the client can check it outside the timed region.
type stashed struct {
	items []volcano.Item
	stats assembly.Stats
}

type fleetEnv struct {
	sz fleetSizes
	tr *tracer
	n  *counts

	backing    []disk.Device // page servers' devices
	backWraps  []*devWrap
	clients    []*pagesvc.Client
	clientWrap []*devWrap
	servers    []*pagesvc.Server
	router     *shard.Router
	routerDev  disk.Device // the router, or its wrapper, under the pool
	routerWrap *devWrap
	db         *gen.Database
	store      atomic.Pointer[object.Store]
	pool       atomic.Pointer[buffer.Pool]

	httpSrv   *http.Server
	served    chan struct{}
	url       string
	transport *http.Transport
	client    *http.Client

	sets  [][]object.OID
	want  []digest
	next  atomic.Int64 // root-set index of the next /query
	stash sync.Map     // index -> stashed
	open  sync.Map     // request span id -> *span, for the handler
}

// buildFleet starts the fleet, generates the database onto it, starts
// the serve layer over loopback HTTP and warms it up. With tr non-nil
// every layer boundary is wrapped; the tracer stays off during set-up.
func buildFleet(sz fleetSizes, seed int64, tr *tracer, n *counts) (e *fleetEnv, err error) {
	e = &fleetEnv{sz: sz, tr: tr, n: n}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if tr != nil {
		tr.off.Store(true)
	}
	reg := metrics.NewRegistry()
	members := make([]shard.Member, sz.Members)
	for i := range members {
		var dev disk.Device = disk.New(0)
		e.backing = append(e.backing, dev)
		if tr != nil {
			w := wrapDevice(dev, tr, nil, "disk")
			e.backWraps = append(e.backWraps, w)
			dev = w
		}
		srv := pagesvc.NewServer([]disk.Device{dev}, pagesvc.ServerConfig{Registry: reg})
		e.servers = append(e.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return e, err
		}
		c, err := pagesvc.Dial(pagesvc.ClientConfig{
			Primary:  addr,
			Dev:      pagesvc.DataDev,
			Retry:    disk.DefaultRetryPolicy,
			Registry: reg,
			Label:    fmt.Sprintf("net-s%d", i),
		})
		if err != nil {
			return e, err
		}
		e.clients = append(e.clients, c)
		var mdev disk.Device = c
		if tr != nil {
			w := wrapDevice(c, tr, nil, "pagesvc")
			e.clientWrap = append(e.clientWrap, w)
			mdev = w
		}
		members[i] = shard.Member{Name: fmt.Sprintf("s%d", i), Primary: mdev}
	}
	if e.router, err = shard.New(shard.Config{Members: members, Registry: reg}); err != nil {
		return e, err
	}
	e.routerDev = e.router
	if tr != nil {
		e.routerWrap = wrapDevice(e.router, tr, nil, "shard")
		e.routerDev = e.routerWrap
	}
	e.db, err = gen.Build(gen.Config{
		NumComplexObjects: sz.Objects,
		Clustering:        gen.Unclustered,
		BufferPages:       sz.Frames,
		Seed:              seed,
		Device:            e.router,
	})
	if err != nil {
		return e, err
	}
	e.sets = drawRootSets(rand.New(rand.NewSource(seed)), e.db.Roots, sz.Sets, sz.Roots)
	e.freshPool(sz.Frames)
	e.pool.Load().RegisterMetrics(reg, "queryserve")

	// The serve layer, wired as cmd/asmserve wires it.
	srv := serve.New(serve.Options{
		Registry:      reg,
		Info:          []string{"asmperf fleet-serve"},
		Query:         e.query,
		MaxConcurrent: sz.Clients,
		QueryTimeout:  5 * time.Second,
		QTrace:        qtrace.NewCollector(0),
		RetryBudget:   64,
	})
	handler := srv.Handler()
	if tr != nil {
		handler = e.traceHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.url = "http://" + ln.Addr().String() + "/query"
	e.httpSrv = &http.Server{Handler: handler}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.httpSrv.Serve(ln)
	}()
	e.transport = &http.Transport{MaxConnsPerHost: sz.Clients, MaxIdleConnsPerHost: sz.Clients, DisableCompression: true}
	e.client = &http.Client{Transport: e.transport}
	for i := 0; i < sz.Warmup; i++ {
		if _, _, err := e.do(0); err != nil {
			return e, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

// freshPool installs an empty pool of the given size (and a store over
// it) for /query.
func (e *fleetEnv) freshPool(frames int) {
	pool := buffer.New(e.routerDev, frames, buffer.LRU)
	e.pool.Store(pool)
	e.store.Store(object.NewStore(openFile(pool, e.db.Store), e.db.Store.Locator, e.db.Store.Catalog))
}

// close stops everything buildFleet started and waits for it.
func (e *fleetEnv) close() {
	if e.httpSrv != nil {
		e.httpSrv.Close()
		<-e.served
		e.httpSrv = nil
	}
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	if e.router != nil {
		e.router.Close()
	}
	for _, c := range e.clients {
		c.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
}

// query is the serve layer's Query function: it runs the next root set
// through the revealed plan with the per-shard elevator and shard
// prefetch, and stashes the result for the client's check.
func (e *fleetEnv) query(ctx context.Context) (string, error) {
	idx := e.next.Add(1) - 1
	roots := e.sets[int(idx)%len(e.sets)]
	opts := assembly.Options{
		Window:          e.sz.Window,
		Scheduler:       assembly.Elevator,
		ReserveFrames:   e.sz.Window*len(e.db.Positions) + 8,
		CustomScheduler: assembly.NewShardElevator(e.router.Shards(), e.router.ShardOf),
		ShardPrefetch:   true,
	}
	q := &query.Query{Template: e.db.Template, Roots: roots}
	items, st, err := runQuery(ctx, e.tr, e.n, spanFrom(ctx), e.store.Load(), q, opts)
	if err != nil {
		return "", err
	}
	e.stash.Store(idx, stashed{items: items, stats: st})
	return fmt.Sprintf("%d", idx), nil
}

// traceHandler wraps the serve handler in a serve.handle span whose
// parent is the client's request span named in the X-Bench-Span header.
func (e *fleetEnv) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent *span
		if id, err := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64); err == nil {
			if s, ok := e.open.Load(id); ok {
				parent = s.(*span)
			}
		}
		sp := e.tr.child(parent, "serve.handle")
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
		sp.end()
	})
}

// errStatus is a non-200 /query answer.
type errStatus int

func (s errStatus) Error() string { return fmt.Sprintf("HTTP %d", int(s)) }

// do sends one /query and returns the index of the query the handler
// ran and its result, taken out of the stash but not yet checked.
func (e *fleetEnv) do(qid uint64) (int64, stashed, error) {
	sp := e.tr.root("bench.request", qid)
	req, err := http.NewRequest(http.MethodGet, e.url, nil)
	if err != nil {
		return 0, stashed{}, err
	}
	if sp != nil {
		e.open.Store(sp.id, sp)
		defer e.open.Delete(sp.id)
		req.Header.Set("X-Bench-Span", strconv.FormatUint(sp.id, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		sp.end()
		return 0, stashed{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return 0, stashed{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, stashed{}, errStatus(resp.StatusCode)
	}
	idx, err := strconv.ParseInt(string(bytes.TrimSpace(body)), 10, 64)
	if err != nil {
		return 0, stashed{}, fmt.Errorf("bad /query body %q", body)
	}
	v, ok := e.stash.LoadAndDelete(idx)
	if !ok {
		return 0, stashed{}, fmt.Errorf("/query %d left no result", idx)
	}
	return idx, v.(stashed), nil
}

// check fingerprints a stashed result against the oracle.
func (e *fleetEnv) check(idx int64, s stashed, rep *report) (queryOut, error) {
	d, comps, err := resultDigest(s.items)
	if err != nil {
		return queryOut{}, err
	}
	if want := e.want[int(idx)%len(e.want)]; d != want {
		rep.fail("fleet-serve: query %d result %+v, oracle %+v", idx, d, want)
	}
	return queryOut{digest: d, comps: comps, stats: s.stats}, nil
}

// oracle fingerprints every root set with query.NaiveExec through the
// router.
func (e *fleetEnv) oracle() ([]digest, error) {
	hashes, err := oracleHashes(e.router, e.db.Store, e.db.Template, e.db.Roots)
	if err != nil {
		return nil, err
	}
	want := make([]digest, len(e.sets))
	for i, s := range e.sets {
		want[i] = expected(hashes, s)
	}
	return want, nil
}

// wrapCounts snapshots the wrapper counters.
type wrapCounts struct {
	back, client []int64
	router       int64
	lookups      int64
	handed       int64
}

func (e *fleetEnv) wrapSnap() wrapCounts {
	var w wrapCounts
	for _, d := range e.backWraps {
		w.back = append(w.back, d.reads.Load())
	}
	for _, d := range e.clientWrap {
		w.client = append(w.client, d.reads.Load())
	}
	if e.routerWrap != nil {
		w.router = e.routerWrap.reads.Load()
	}
	if e.n != nil {
		w.lookups, w.handed = e.n.lookups.Load(), e.n.handed.Load()
	}
	return w
}

// agreement checks the traced wrappers' counts since before against the
// layers' own counters over the same stretch.
func (e *fleetEnv) agreement(rep *report, before, after wrapCounts, back, clients []disk.Stats, pool poolCounts, asm asmCounts) {
	if e.tr == nil {
		return
	}
	var sumClient int64
	for i := range e.backWraps {
		agree(rep, fmt.Sprintf("server %d device reads (wrapper vs disk.Stats)", i), after.back[i]-before.back[i], back[i].Reads)
		agree(rep, fmt.Sprintf("member %d pagesvc.rpcs vs pagesvc.Client.Stats reads", i), after.client[i]-before.client[i], clients[i].Reads)
		agree(rep, fmt.Sprintf("member %d server reads vs client reads", i), back[i].Reads, clients[i].Reads)
		sumClient += clients[i].Reads
	}
	agree(rep, "buffer faults vs shard router reads under the pool", pool.Faults, after.router-before.router)
	agree(rep, "shard router reads vs member client reads", after.router-before.router, sumClient)
	agree(rep, "assembly Fetched vs locator lookups", asm.Fetched, after.lookups-before.lookups)
	agree(rep, "assembly Fetched vs scheduler hand-outs", asm.Fetched, after.handed-before.handed)
}

func statsOf(devs []disk.Device) []disk.Stats {
	out := make([]disk.Stats, len(devs))
	for i, d := range devs {
		out[i] = d.Stats()
	}
	return out
}

func subStats(after, before []disk.Stats) []disk.Stats {
	out := make([]disk.Stats, len(after))
	for i := range after {
		out[i] = after[i].Sub(before[i])
	}
	return out
}

func clientDevs(cs []*pagesvc.Client) []disk.Device {
	out := make([]disk.Device, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

// refFrames is the pool size of each reference query: more pages than
// one query touches, so nothing is evicted. With evictions the
// counters would not repeat: the operator's shard prefetch fixes one
// page per lane concurrently, and when the least recently used frame
// holds one of those pages, whether it is evicted depends on which
// lane's goroutine reaches the pool first.
const refFrames = 512

// reference runs the sequential reference pass, each query from an
// empty pool with every head parked: its counters are the workload's
// deterministic metrics. The open loop then starts from an empty pool
// of the workload's size.
func (e *fleetEnv) reference(ph *phase, rep *report) error {
	e.router.ResetHead()
	for _, d := range e.backing {
		d.ResetHead()
	}
	e.next.Store(0)
	snap := snapDevices(e.backing...)
	cl0 := statsOf(clientDevs(e.clients))
	w0 := e.wrapSnap()
	var det detCounts
	for i := 0; i < e.sz.RefQueries; i++ {
		e.freshPool(refFrames)
		ph.attempted++
		idx, s, err := e.do(uint64(i + 1))
		if err != nil {
			return fmt.Errorf("reference query %d: %w", i, err)
		}
		out, err := e.check(idx, s, rep)
		if err != nil {
			return err
		}
		det.addQuery(out)
		det.Pool.add(poolDelta(e.pool.Load().Stats(), buffer.Stats{}))
	}
	det.Dev = snap.delta()
	ph.addEpoch(det, rep)
	e.freshPool(e.sz.Frames)
	// The phase's own counters cover the open loop only.
	ph.dev, ph.pool = devCounts{}, poolCounts{}
	e.agreement(rep, w0, e.wrapSnap(), subStats(statsOf(e.backing), snap.before),
		subStats(statsOf(clientDevs(e.clients)), cl0), det.Pool, det.Asm)
	return nil
}

// openLoop issues queries at the fixed rate for d over at most Clients
// connections and records latency from each request's due time.
func (e *fleetEnv) openLoop(d time.Duration, rate float64, ph *phase, rep *report) (lag latencies, codes map[int]int64, err error) {
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(d / interval)
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	codes = map[int]int64{}
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < e.sz.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				} else if -wait > d/2 {
					// The backlog outgrew half the schedule: the
					// fleet cannot sustain the rate. Count the rest
					// as failed rather than run on unbounded.
					mu.Lock()
					ph.attempted++
					ph.failed++
					codes[0]++
					mu.Unlock()
					continue
				}
				sent := time.Now()
				idx, s, err := e.do(uint64(i + 1))
				answered := time.Now()
				var out queryOut
				var status errStatus
				if err == nil {
					out, err = e.check(idx, s, rep)
				}
				mu.Lock()
				ph.attempted++
				lag = append(lag, sent.Sub(due))
				switch {
				case err == nil:
					ph.addQuery(out, answered.Sub(due), answered.Sub(sent), e.sz.Roots)
					ph.addRate(int64(out.stats.Assembled), answered.Sub(sent))
				case errors.As(err, &status):
					ph.failed++
					codes[int(status)]++
				default:
					ph.failed++
					if firstErr == nil {
						firstErr = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lag, codes, firstErr
}

// measure runs the reference pass and then the open loop for d.
func (e *fleetEnv) measure(d time.Duration, rate float64, rep *report) (*phase, error) {
	ph := &phase{}
	if e.tr != nil {
		e.tr.off.Store(false)
	}
	if err := e.reference(ph, rep); err != nil {
		return nil, err
	}
	if e.tr != nil {
		// Per-layer numbers cover the open loop alone.
		e.tr.reset()
		e.n.reset()
	}
	back0 := statsOf(e.backing)
	cl0 := statsOf(clientDevs(e.clients))
	w0 := e.wrapSnap()
	pool0 := e.pool.Load().Stats()
	runtime.GC()
	mem := startMem()
	lag, codes, err := e.openLoop(d, rate, ph, rep)
	if err != nil {
		return nil, err
	}
	mem.stop(ph)
	ph.heapMB = liveHeapMB()
	back := subStats(statsOf(e.backing), back0)
	for _, st := range back {
		ph.dev.add(devCounts{Reads: st.Reads, Writes: st.Writes, SeekReads: st.SeekReads, SeekTotal: st.SeekTotal})
	}
	ph.pool = poolDelta(e.pool.Load().Stats(), pool0)
	e.agreement(rep, w0, e.wrapSnap(), back, subStats(statsOf(clientDevs(e.clients)), cl0), ph.pool, ph.asm)
	if e.tr != nil {
		e.layerExtras(ph, w0, lag, codes)
	}
	runtime.KeepAlive(e)
	return ph, nil
}

// layerExtras adds the page-service, shard and serve per-layer numbers
// of a traced phase.
func (e *fleetEnv) layerExtras(ph *phase, w0 wrapCounts, lag latencies, codes map[int]int64) {
	tr := e.tr
	q := float64(ph.queries)
	rpc := tr.agg("pagesvc.read")
	dev := tr.agg("disk.read")
	rtr := tr.agg("shard.read")
	drain := tr.agg("assembly.drain")
	handle := tr.agg("serve.handle")
	p50, p99 := rpc.Durs.percentile(0.50), rpc.Durs.percentile(0.99)
	var reads, maxReads int64
	for i, w := range e.clientWrap {
		r := w.reads.Load() - w0.client[i]
		reads += r
		if r > maxReads {
			maxReads = r
		}
	}
	var meanLag time.Duration
	for _, l := range lag {
		meanLag += l
	}
	add := func(name string, v float64, unit string) { ph.extra = append(ph.extra, metric{name, v, unit}) }
	add("pagesvc.rpc_p50_us", us(p50.Value), "us")
	add("pagesvc.rpc_p99_us", us(p99.Value), "us")
	add("pagesvc.rpc_samples", float64(p99.Samples), "count")
	add("pagesvc.pages_per_rpc", ratio(float64(reads), float64(rpc.Count)), "pages")
	add("pagesvc.wire_ms", ratio(ms(rpc.Total-dev.Total), q), "ms")
	add("shard.self_ms", ratio(ms(rtr.Self), q), "ms")
	add("shard.max_member_share", ratio(float64(maxReads), float64(reads)), "frac")
	add("shard.lane_parallelism", ratio(float64(rpc.Total), float64(drain.KidUnion["shard.read"])), "x")
	add("serve.self_ms", ratio(ms(handle.Self), float64(handle.Count)), "ms")
	add("serve.shed_frac", ratio(float64(codes[http.StatusServiceUnavailable]), float64(ph.attempted)), "frac")
	add("serve.timeout_frac", ratio(float64(codes[http.StatusGatewayTimeout]), float64(ph.attempted)), "frac")
	add("bench.gen_lag_ms", ratio(ms(meanLag), float64(len(lag))), "ms")
	add("bench.gen_lag_p99_ms", ms(lag.percentile(0.99).Value), "ms")
}

func runFleetServe(cfg runConfig) (*report, error) {
	rep := &report{}
	sz := fleetServe
	env, setupS, err := repeatSetup(setups, func() (*fleetEnv, error) { return buildFleet(sz, cfg.seed, nil, nil) }, (*fleetEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	want, err := env.oracle()
	if err != nil {
		return nil, err
	}
	env.want = want
	rep.note("fleet-serve: %d objects on %d pages over %d page services, pool %d frames, window %d, %d roots per query, open loop at %.1f queries/s over %d connections",
		sz.Objects, env.db.DataPages, sz.Members, sz.Frames, sz.Window, sz.Roots, float64(fleetRate), sz.Clients)
	return measureWorkload(cfg, rep, setupS, func(d time.Duration, tr *tracer, n *counts) (*phase, error) {
		if tr == nil {
			return env.measure(d, fleetRate, rep)
		}
		// The traced phase gets its own fleet, wrapped at every layer.
		env.close()
		te, err := buildFleet(sz, cfg.seed, tr, n)
		if err != nil {
			return nil, err
		}
		defer te.close()
		te.want = want
		return te.measure(d, fleetRate, rep)
	})
}
