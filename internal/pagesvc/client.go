package pagesvc

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// ClientConfig tunes a Client.
type ClientConfig struct {
	// Primary is the address writes (and reads, until failover) go to.
	Primary string
	// Replicas are read-only fallbacks: hedge targets for straggling
	// reads and failover targets when the primary stops answering.
	Replicas []string
	// Dev is the wire device index this client addresses (DataDev for
	// pages, WALDev for the log).
	Dev byte
	// Timeout bounds each request round trip; zero means 2s.
	Timeout time.Duration
	// Retry absorbs transient failures (network errors, timeouts,
	// remote transient faults) with exponential backoff. The zero
	// policy disables retries.
	Retry disk.RetryPolicy
	// JitterSeed seeds the full jitter applied to retry/reconnect
	// backoff, so a fleet of clients kicked by the same outage
	// desynchronizes instead of re-dialing in lockstep. Zero derives a
	// per-client seed from the primary address; tests set it explicitly
	// for a reproducible delay sequence.
	JitterSeed int64
	// Label overrides the device label this client's asm_net_* metric
	// series carry; empty means "net<Dev>". A sharded fleet gives each
	// member client its own label so their series do not collide in one
	// registry.
	Label string
	// HedgeAfter, when positive, hedges a read to a replica after a
	// fixed delay. When zero, the delay adapts: a read is hedged once
	// it outlives HedgeQuantile of recent read latencies (doubled),
	// after a small warm-up sample.
	HedgeAfter time.Duration
	// HedgeQuantile is the adaptive straggler threshold; zero means
	// 0.9.
	HedgeQuantile float64
	// LSNFloor, when set, is the staleness guard consulted at
	// failover: only replicas whose applied LSN has reached the floor
	// are eligible. Wire it to the local wal.Writer's DurableLSN so a
	// failover can never travel back before the caller's own durable
	// writes. Nil means any replica is eligible.
	LSNFloor func() uint64
	// Tracer receives net-layer events (send, recv, hedge, failover,
	// reconnect); nil disables them.
	Tracer *trace.Tracer
	// Registry, when set, receives the client's counters under
	// asm_net_*.
	Registry *metrics.Registry
}

// endpoint is one server address plus its (lazily dialed) connection.
type endpoint struct {
	addr string

	mu     sync.Mutex
	conn   *clientConn
	everUp bool // a connection has existed before (reconnect detection)
}

// clientConn is one live connection with response demultiplexing:
// requests are pipelined by id, a reader goroutine routes responses to
// the waiting callers.
type clientConn struct {
	c  net.Conn
	wm sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan response
	dead    error
}

// Client talks to a page service and implements disk.Device for one
// remote device, so a buffer pool or WAL writer stacks on it
// unchanged. Seek accounting is kept client-side: the head tracks the
// last page touched, so elevator scheduling and the paper's
// seek-distance metric stay meaningful even though the physical device
// is remote.
type Client struct {
	cfg    ClientConfig
	jitter *disk.Jitter

	// epoch is stamped into every request (protocol v2) when nonzero:
	// the fleet controller raises it after a promotion so a server
	// still living in a superseded epoch rejects this client's traffic
	// — and, symmetrically, a superseded client is rejected by current
	// servers.
	epoch atomic.Uint64

	primary  *endpoint
	replicas []*endpoint

	mu        sync.Mutex
	reqID     uint64
	readFrom  *endpoint // current read target (primary until failover)
	numPages  int
	pageSize  int
	arm       disk.Arm        // client-side head accounting and disk-layer events
	latencies []time.Duration // ring of recent read RTTs
	latNext   int
	closed    bool

	sends      metrics.Counter
	recvs      metrics.Counter
	errors_    metrics.Counter
	timeouts   metrics.Counter
	hedges     metrics.Counter
	hedgeWins  metrics.Counter
	failovers  metrics.Counter
	reconnects metrics.Counter
}

const latencyRing = 64
const hedgeWarmup = 16

// Dial connects to the primary, fetches device geometry, and returns a
// ready Client.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile >= 1 {
		cfg.HedgeQuantile = 0.9
	}
	c := &Client{
		cfg:     cfg,
		jitter:  disk.NewJitter(jitterSeed(cfg.JitterSeed, cfg.Primary)),
		primary: &endpoint{addr: cfg.Primary},
	}
	for _, a := range cfg.Replicas {
		c.replicas = append(c.replicas, &endpoint{addr: a})
	}
	c.readFrom = c.primary
	if r := cfg.Registry; r != nil {
		dev := cfg.Label
		if dev == "" {
			dev = fmt.Sprintf("net%d", cfg.Dev)
		}
		r.Attach("asm_net_sends_total", "Page-service requests sent.", &c.sends, "dev", dev)
		r.Attach("asm_net_recvs_total", "Page-service responses received.", &c.recvs, "dev", dev)
		r.Attach("asm_net_errors_total", "Page-service requests that failed.", &c.errors_, "dev", dev)
		r.Attach("asm_net_timeouts_total", "Page-service requests abandoned on deadline.", &c.timeouts, "dev", dev)
		r.Attach("asm_net_hedges_total", "Straggler reads hedged to a replica.", &c.hedges, "dev", dev)
		r.Attach("asm_net_hedge_wins_total", "Hedged reads won by the replica.", &c.hedgeWins, "dev", dev)
		r.Attach("asm_net_failovers_total", "Read-routing switches off the primary.", &c.failovers, "dev", dev)
		r.Attach("asm_net_reconnects_total", "Endpoint connections re-established.", &c.reconnects, "dev", dev)
	}
	pages, ps, _, _, err := c.info(c.primary)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.numPages, c.pageSize = pages, ps
	c.mu.Unlock()
	return c, nil
}

// jitterSeed resolves the configured seed: an explicit value wins, and
// zero derives a stable per-address seed (FNV-1a) so distinct members
// of a fleet jitter differently by default.
func jitterSeed(seed int64, addr string) int64 {
	if seed != 0 {
		return seed
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return int64(h | 1) // never zero
}

// AppliedLSN fetches the endpoint's replication progress from its Info
// reply: the applied LSN for a replica-backed server, 0 for a primary.
// The shard router wires it into its failover staleness guard.
func (c *Client) AppliedLSN() (uint64, error) {
	_, _, lsn, _, err := c.info(c.primary)
	return lsn, err
}

// ServerEpoch fetches the primary endpoint's fencing epoch from its
// Info reply.
func (c *Client) ServerEpoch() (uint64, error) {
	_, _, _, epoch, err := c.info(c.primary)
	return epoch, err
}

// SetEpoch sets the fencing epoch stamped into every subsequent
// request. The fleet controller raises it after a promotion; zero
// (the default) sends unfenced v1-compatible traffic.
func (c *Client) SetEpoch(epoch uint64) { c.epoch.Store(epoch) }

// Epoch returns the client's current stamped epoch.
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// Ping round-trips an empty request to the primary endpoint without
// retries — the fleet controller's liveness probe. A healthy server
// answers inside the client timeout; anything else is an error.
func (c *Client) Ping() error {
	_, err := c.call(c.primary, opPing, nil, trace.NoPage, c.nextID(), nil)
	return err
}

// Promote asks the primary endpoint to adopt a new fencing epoch:
// writable true promotes a replica server to writable primary (its
// applied LSN must have reached minLSN, or the refusal is transient
// and worth retrying as catch-up progresses); writable false fences a
// server read-only at the epoch (the demotion posture for a returned
// zombie). The epoch must exceed the server's current one — racing
// promotions at the same epoch crown exactly one winner, the rest get
// ErrFenced.
func (c *Client) Promote(epoch, minLSN uint64, writable bool) error {
	_, err := c.call(c.primary, opPromote, encodePromote(epoch, minLSN, writable), trace.NoPage, c.nextID(), nil)
	if err != nil {
		return err
	}
	if !writable {
		return nil
	}
	// The endpoint just became the source of truth; the extent cached
	// at dial time may predate its base backup (or a restart), and the
	// client-side range check would refuse pages the server now holds.
	pages, ps, _, _, err := c.info(c.primary)
	if err != nil {
		return nil // promoted; the stale extent heals on the next Allocate
	}
	c.mu.Lock()
	if pages > c.numPages && ps == c.pageSize {
		c.numPages = pages
	}
	c.mu.Unlock()
	return nil
}

// connect returns ep's live connection, dialing if needed.
func (c *Client) connect(ep *endpoint) (*clientConn, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.conn != nil {
		ep.conn.mu.Lock()
		dead := ep.conn.dead
		ep.conn.mu.Unlock()
		if dead == nil {
			return ep.conn, nil
		}
		ep.conn = nil
	}
	nc, err := net.DialTimeout("tcp", ep.addr, c.cfg.Timeout)
	if err != nil {
		return nil, netErr("dial "+ep.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cc := &clientConn{c: nc, pending: map[uint64]chan response{}}
	go cc.readLoop()
	if ep.everUp {
		c.reconnects.Inc()
		c.cfg.Tracer.NetQ(trace.KindReconnect, trace.NoPage, 0, ep.addr, 0)
	}
	ep.everUp = true
	ep.conn = cc
	return cc, nil
}

// readLoop routes responses to their callers until the conn dies, then
// fails every waiter.
func (cc *clientConn) readLoop() {
	for {
		payload, err := readFrame(cc.c)
		if err != nil {
			cc.fail(netErr("recv", err))
			return
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			cc.fail(err)
			return
		}
		cc.mu.Lock()
		ch := cc.pending[resp.reqID]
		cc.mu.Unlock()
		if ch != nil {
			select {
			case ch <- resp:
			default: // caller already gave up
			}
		}
	}
}

func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.dead == nil {
		cc.dead = err
	}
	for id, ch := range cc.pending {
		delete(cc.pending, id)
		select {
		case ch <- response{status: stErr, reqID: id, body: encodeErr(err)}:
		default:
		}
	}
	cc.mu.Unlock()
	cc.c.Close()
}

// start registers a waiter and sends the request frame.
func (cc *clientConn) start(req request) (chan response, error) {
	ch := make(chan response, 1)
	cc.mu.Lock()
	if cc.dead != nil {
		err := cc.dead
		cc.mu.Unlock()
		return nil, err
	}
	cc.pending[req.reqID] = ch
	cc.mu.Unlock()
	cc.wm.Lock()
	err := writeFrame(cc.c, encodeRequest(req))
	cc.wm.Unlock()
	if err != nil {
		cc.forget(req.reqID)
		cc.fail(netErr("send", err))
		return nil, netErr("send", err)
	}
	return ch, nil
}

func (cc *clientConn) forget(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

func (cc *clientConn) close() {
	cc.fail(netErr("conn", fmt.Errorf("closed")))
}

func (c *Client) nextID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqID++
	return c.reqID
}

// call performs one request round trip on ep with the client timeout.
// The reqID is allocated by the caller once per logical operation, so a
// retry or a re-send after reconnect reuses the same id — the wire
// trace of a flaky run is deterministic, and a late response to an
// earlier attempt matches the current waiter instead of being dropped.
// sp, when non-nil, attributes the wire activity to a query span and
// stamps its query id into the request frame (protocol v2).
func (c *Client) call(ep *endpoint, op byte, body []byte, page int64, reqID uint64, sp *qtrace.Span) (response, error) {
	cc, err := c.connect(ep)
	if err != nil {
		c.errors_.Inc()
		return response{}, err
	}
	qid := sp.QID()
	req := request{op: op, dev: c.cfg.Dev, reqID: reqID, qid: qid, epoch: c.epoch.Load(), body: body}
	c.sends.Inc()
	sp.OnNetSend()
	c.cfg.Tracer.NetQ(trace.KindSend, page, 0, ep.addr, qid)
	ch, err := cc.start(req)
	if err != nil {
		c.errors_.Inc()
		return response{}, err
	}
	timer := time.NewTimer(c.cfg.Timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		cc.forget(req.reqID)
		if resp.status == stErr {
			c.errors_.Inc()
			c.recvs.Inc()
			err := decodeErr(resp.body)
			sp.OnNetRecv()
			c.cfg.Tracer.NetQ(trace.KindRecv, page, 1, ep.addr, qid)
			return response{}, err
		}
		c.recvs.Inc()
		sp.OnNetRecv()
		c.cfg.Tracer.NetQ(trace.KindRecv, page, 0, ep.addr, qid)
		return resp, nil
	case <-timer.C:
		cc.forget(req.reqID)
		c.timeouts.Inc()
		c.errors_.Inc()
		sp.OnNetTimeout()
		c.cfg.Tracer.NetQ(trace.KindTimeout, page, 1, ep.addr, qid)
		return response{}, netErr("timeout on "+ep.addr, fmt.Errorf("%s after %v", opName(op), c.cfg.Timeout))
	}
}

func opName(op byte) string {
	switch op {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opAlloc:
		return "alloc"
	case opInfo:
		return "info"
	case opPing:
		return "ping"
	case opFollow:
		return "follow"
	case opPromote:
		return "promote"
	default:
		return fmt.Sprintf("op%d", op)
	}
}

// info fetches device geometry, replication progress, and the fencing
// epoch from ep.
func (c *Client) info(ep *endpoint) (pages, pageSize int, appliedLSN, epoch uint64, err error) {
	resp, err := c.call(ep, opInfo, nil, trace.NoPage, c.nextID(), nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if len(resp.body) != 28 {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d-byte info", ErrBadFrame, len(resp.body))
	}
	return int(binary.LittleEndian.Uint64(resp.body[0:])),
		int(binary.LittleEndian.Uint32(resp.body[8:])),
		binary.LittleEndian.Uint64(resp.body[12:]),
		binary.LittleEndian.Uint64(resp.body[20:]), nil
}

// hedgeDelay decides how long a read may straggle before it is hedged
// to a replica: the configured fixed delay, or an adaptive threshold
// at the latency quantile (doubled) once enough samples exist. A zero
// return disables hedging for this read.
func (c *Client) hedgeDelay() time.Duration {
	if len(c.replicas) == 0 {
		return 0
	}
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.latencies) < hedgeWarmup {
		return 0
	}
	sorted := make([]time.Duration, len(c.latencies))
	copy(sorted, c.latencies)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := sorted[int(float64(len(sorted)-1)*c.cfg.HedgeQuantile)]
	d := 2 * q
	if d < 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	return d
}

func (c *Client) observeLatency(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.latencies) < latencyRing {
		c.latencies = append(c.latencies, d)
		return
	}
	c.latencies[c.latNext] = d
	c.latNext = (c.latNext + 1) % latencyRing
}

// readTarget returns the endpoint reads currently route to.
func (c *Client) readTarget() *endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readFrom
}

// Failed reports the endpoint reads have failed over to, or "" while
// the primary is still the read target.
func (c *Client) FailedOver() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readFrom == c.primary {
		return ""
	}
	return c.readFrom.addr
}

// failover probes the replicas and routes reads to the freshest one
// whose applied LSN clears the staleness floor. It reports whether the
// read target changed. The primary stays the write target — writes
// keep failing (transiently) until it returns.
func (c *Client) failover(from *endpoint) bool {
	var floor uint64
	if c.cfg.LSNFloor != nil {
		floor = c.cfg.LSNFloor()
	}
	var best *endpoint
	var bestLSN uint64
	for _, ep := range c.replicas {
		if ep == from {
			continue
		}
		_, _, applied, _, err := c.info(ep)
		if err != nil {
			continue
		}
		if applied < floor {
			continue
		}
		if best == nil || applied > bestLSN {
			best, bestLSN = ep, applied
		}
	}
	if best == nil {
		return false
	}
	c.mu.Lock()
	changed := c.readFrom != best
	c.readFrom = best
	c.mu.Unlock()
	if changed {
		c.failovers.Inc()
		c.cfg.Tracer.NetQ(trace.KindFailover, trace.NoPage, int64(bestLSN), best.addr, 0)
	}
	return changed
}

// readOnce performs one read attempt with straggler hedging: the
// request goes to the current read target, and if no response arrives
// within the hedge delay, the same read is raced against a replica —
// first success wins. Both legs carry the same reqID: they are one
// logical read, and the id identifies it across endpoints and retries.
func (c *Client) readOnce(p disk.PageID, buf []byte, reqID uint64, sp *qtrace.Span) error {
	target := c.readTarget()
	delay := c.hedgeDelay()
	var body [4]byte
	binary.LittleEndian.PutUint32(body[:], uint32(p))

	type result struct {
		resp response
		err  error
	}
	primCh := make(chan result, 1)
	start := time.Now()
	go func() {
		resp, err := c.call(target, opRead, body[:], int64(p), reqID, sp)
		primCh <- result{resp, err}
	}()

	finish := func(r result) error {
		if r.err != nil {
			return r.err
		}
		if len(r.resp.body) != len(buf) {
			return fmt.Errorf("%w: %d-byte page, want %d", ErrBadFrame, len(r.resp.body), len(buf))
		}
		copy(buf, r.resp.body)
		c.observeLatency(time.Since(start))
		return nil
	}

	if delay <= 0 {
		return finish(<-primCh)
	}
	hedgeTimer := time.NewTimer(delay)
	defer hedgeTimer.Stop()
	select {
	case r := <-primCh:
		return finish(r)
	case <-hedgeTimer.C:
	}

	// The target is straggling: race a replica against it.
	hedge := c.pickHedge(target)
	if hedge == nil {
		return finish(<-primCh)
	}
	c.hedges.Inc()
	sp.OnHedge()
	c.cfg.Tracer.NetQ(trace.KindHedge, int64(p), 0, hedge.addr, sp.QID())
	hedgeCh := make(chan result, 1)
	go func() {
		resp, err := c.call(hedge, opRead, body[:], int64(p), reqID, sp)
		hedgeCh <- result{resp, err}
	}()
	var firstErr error
	for i := 0; i < 2; i++ {
		select {
		case r := <-primCh:
			if r.err == nil {
				return finish(r)
			}
			if firstErr == nil {
				firstErr = r.err
			}
			primCh = nil
		case r := <-hedgeCh:
			if r.err == nil {
				c.hedgeWins.Inc()
				return finish(r)
			}
			if firstErr == nil {
				firstErr = r.err
			}
			hedgeCh = nil
		}
	}
	return firstErr
}

// pickHedge selects a replica other than the current target.
func (c *Client) pickHedge(target *endpoint) *endpoint {
	for _, ep := range c.replicas {
		if ep != target {
			return ep
		}
	}
	return nil
}

// --- disk.Device ---

// ReadPage reads page p from the service: hedged against stragglers,
// retried on transient failures, failing over to a fresh-enough
// replica when the read target stops answering.
func (c *Client) ReadPage(p disk.PageID, buf []byte) error {
	return c.readPage(p, buf, nil)
}

// ReadPageCtx implements disk.CtxReader: the read is attributed to the
// query span carried in ctx, and the query id travels in the request
// frame so the server can attribute its side of the work too.
func (c *Client) ReadPageCtx(ctx context.Context, p disk.PageID, buf []byte) error {
	return c.readPage(p, buf, qtrace.From(ctx))
}

func (c *Client) readPage(p disk.PageID, buf []byte, sp *qtrace.Span) error {
	if err := c.admit(p, buf, true, sp); err != nil {
		return err
	}
	// One reqID for the whole logical read: every retry, reconnect
	// re-send, and hedge leg below reuses it.
	reqID := c.nextID()
	_, err := c.cfg.Retry.DoJitter(c.jitter, func() error {
		err := c.readOnce(p, buf, reqID, sp)
		if err != nil && disk.Retryable(err) && c.readTarget() == c.primary {
			// The primary may be down, not just slow: try to move the
			// read target before the next retry burns its backoff.
			c.failover(c.primary)
		}
		return err
	})
	return err
}

// WritePage writes page p through to the primary. Writes never hedge
// and never fail over: there is exactly one write master, and when it
// is down writes fail transiently until it returns.
func (c *Client) WritePage(p disk.PageID, buf []byte) error {
	if err := c.admit(p, buf, false, nil); err != nil {
		return err
	}
	body := make([]byte, 4+len(buf))
	binary.LittleEndian.PutUint32(body, uint32(p))
	copy(body[4:], buf)
	reqID := c.nextID()
	_, err := c.cfg.Retry.DoJitter(c.jitter, func() error {
		_, err := c.call(c.primary, opWrite, body, int64(p), reqID, nil)
		return err
	})
	return err
}

// Allocate extends the remote device on the primary.
func (c *Client) Allocate(n int) (disk.PageID, error) {
	var body [4]byte
	binary.LittleEndian.PutUint32(body[:], uint32(n))
	var first disk.PageID
	reqID := c.nextID()
	_, err := c.cfg.Retry.DoJitter(c.jitter, func() error {
		resp, err := c.call(c.primary, opAlloc, body[:], trace.NoPage, reqID, nil)
		if err != nil {
			return err
		}
		if len(resp.body) != 4 {
			return fmt.Errorf("%w: %d-byte alloc reply", ErrBadFrame, len(resp.body))
		}
		first = disk.PageID(binary.LittleEndian.Uint32(resp.body))
		return nil
	})
	if err != nil {
		return disk.InvalidPage, err
	}
	c.mu.Lock()
	if int(first)+n > c.numPages {
		c.numPages = int(first) + n
	}
	c.mu.Unlock()
	return first, nil
}

// NumPages reports the device size as of the last Info/Allocate.
func (c *Client) NumPages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.numPages
}

// PageSize reports the remote page size.
func (c *Client) PageSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pageSize
}

// Head reports the locally tracked head position: the last page this
// client touched. Scheduling against it keeps the elevator's seek
// ordering meaningful across the network.
func (c *Client) Head() disk.PageID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arm.Head()
}

// Stats reports client-side access counters with local seek
// accounting.
func (c *Client) Stats() disk.Stats { return c.arm.Stats() }

// ResetHead parks the head at page 0 without accounting a seek.
func (c *Client) ResetHead() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm.Park()
}

// Close severs every endpoint connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	for _, ep := range append([]*endpoint{c.primary}, c.replicas...) {
		ep.mu.Lock()
		if ep.conn != nil {
			ep.conn.close()
			ep.conn = nil
		}
		ep.mu.Unlock()
	}
	return nil
}

// admit validates an access and books it at the local head before it
// goes on the wire — once per logical access, however many retries or
// hedges follow — charging a read to sp when a query span rode in.
func (c *Client) admit(p disk.PageID, buf []byte, read bool, sp *qtrace.Span) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return disk.ErrClosed
	}
	if len(buf) != c.pageSize {
		return disk.ErrBadLength
	}
	if int(p) >= c.numPages {
		return fmt.Errorf("%w: page %d of %d", disk.ErrOutOfRange, p, c.numPages)
	}
	c.arm.Access(p, read, sp)
	return nil
}

// SetTracer implements disk.TracerSetter: each page access emits a
// disk-layer event from the client-side head accounting, mirroring the
// contract of the local devices — the event carries the head position
// before the access and the (local) seek distance, and is emitted once
// per logical access regardless of retries or hedges. This is distinct
// from ClientConfig.Tracer, which receives the net-layer events (every
// send/recv, including retries). Pass nil to disable.
func (c *Client) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm.SetTracer(t)
}

var _ disk.Device = (*Client)(nil)
