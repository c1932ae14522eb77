package assembly

import (
	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/object"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// probe is the operator's one accounting path: each event of a run is
// booked in one call into the run's Stats, the asm_assembly_* registry
// cells, the query's qtrace span and the trace event stream, so the
// four sinks cannot drift apart. Stats stays per-run exact (parallel
// clones each keep their own); the cells are get-or-create per policy
// label, so they accumulate monotonically across runs and clones while
// Snapshot deltas recover any single run. A nil registry yields
// detached cells and a nil span or tracer is a no-op, so no booking
// site branches.
type probe struct {
	stats  Stats
	span   *qtrace.Span
	tr     *trace.Tracer
	qid    uint64
	policy string

	assembled, aborted, skipped, resolved, fetched, pageRequests     *metrics.Counter
	sharedLinks, predicateFails, nilRefs, faultRetries, windowStalls *metrics.Counter
	lifecycleAborts                                                  *metrics.Counter

	occupancy   *metrics.Gauge // live complex objects in the window
	refPool     *metrics.Gauge // unresolved references queued
	windowPages *metrics.Gauge // distinct pages backing the window
}

// newProbe builds a run's probe against r, labeled by scheduling
// policy, booking into span and tr.
func newProbe(r *metrics.Registry, policy string, tr *trace.Tracer, span *qtrace.Span) probe {
	c := func(name, help string) *metrics.Counter { return r.Counter(name, help, "policy", policy) }
	g := func(name, help string) *metrics.Gauge { return r.Gauge(name, help, "policy", policy) }
	p := probe{
		span: span, tr: tr, qid: span.QID(), policy: policy,
		assembled:       c("asm_assembly_assembled_total", "Complex objects emitted."),
		aborted:         c("asm_assembly_aborted_total", "Complex objects abandoned by a predicate."),
		resolved:        c("asm_assembly_resolved_total", "References resolved (fetches plus shared links)."),
		fetched:         c("asm_assembly_fetched_total", "Objects materialized from storage."),
		pageRequests:    c("asm_assembly_page_requests_total", "Buffer requests issued for fetches."),
		sharedLinks:     c("asm_assembly_shared_links_total", "References satisfied from assembled instances."),
		predicateFails:  c("asm_assembly_predicate_fails_total", "Predicate evaluations that rejected an object."),
		nilRefs:         c("asm_assembly_nil_refs_total", "References that were the nil OID."),
		skipped:         c("asm_assembly_skipped_total", "Complex objects quarantined by I/O faults."),
		faultRetries:    c("asm_assembly_fault_retries_total", "Reference fetches re-queued after transient faults."),
		windowStalls:    c("asm_assembly_window_stalls_total", "Admission pauses forced by buffer exhaustion."),
		lifecycleAborts: c("asm_assembly_lifecycle_aborts_total", "Query lifecycle aborts (deadline, cancellation, or shed)."),
		occupancy:       g("asm_assembly_window_occupancy", "Complex objects currently in the window."),
		refPool:         g("asm_assembly_ref_pool", "Unresolved references currently queued."),
		windowPages:     g("asm_assembly_window_pages", "Distinct pages backing the window."),
	}
	p.occupancy.Set(0)
	return p
}

// event emits one assembly trace event attributed to the run's query.
func (p *probe) event(kind string, oid object.OID, pg, head int64, note string) {
	p.tr.AssemblyQ(kind, uint64(oid), pg, head, note, p.qid)
}

// count books one event into a Stats field and its registry cell.
func count(n *int, c *metrics.Counter) {
	*n++
	c.Inc()
}

// admit books a complex object entering the window, live objects now
// in it.
func (p *probe) admit(root object.OID, live int) {
	p.occupancy.Set(int64(live))
	p.event(trace.KindAdmit, root, trace.NoPage, trace.NoPage, "")
}

// refs emits one pend or take event per reference; an untraced run
// skips the loop.
func (p *probe) refs(kind string, refs []*Ref) {
	if p.tr == nil {
		return
	}
	for _, r := range refs {
		p.event(kind, r.OID, int64(r.RID.Page), trace.NoPage, "")
	}
}

// queued books the scheduler's reference pool size.
func (p *probe) queued(n int) {
	p.refPool.Set(int64(n))
	p.stats.PeakRefPool = max(p.stats.PeakRefPool, n)
}

// pages books the count of distinct pages backing the window.
func (p *probe) pages(n int) {
	p.windowPages.Set(int64(n))
	p.stats.PeakWindowPgs = max(p.stats.PeakWindowPgs, n)
}

// choose books the policy decision: the reference the scheduler picked
// with the head at head.
func (p *probe) choose(r *Ref, head disk.PageID) {
	p.event(trace.KindChoose, r.OID, int64(r.RID.Page), int64(head), p.policy)
}

// resolve books a reference taken off the scheduler, queued left.
func (p *probe) resolve(queued int) {
	count(&p.stats.Resolved, p.resolved)
	p.queued(queued)
}

// request books one buffer request issued for fetches.
func (p *probe) request() { count(&p.stats.PageRequests, p.pageRequests) }

// fetch books a component materialized from storage.
func (p *probe) fetch(r *Ref) {
	count(&p.stats.Fetched, p.fetched)
	p.span.OnFetch()
	p.event(trace.KindFetch, r.OID, int64(r.RID.Page), trace.NoPage, "")
}

// link books a reference satisfied without a fetch; from names where
// the instance came from: "intra", "window" or "stacked".
func (p *probe) link(r *Ref, from string) {
	count(&p.stats.SharedLinks, p.sharedLinks)
	p.span.OnLink()
	p.event(trace.KindLink, r.OID, trace.NoPage, trace.NoPage, from)
}

// stall books an admission pause forced by buffer exhaustion.
func (p *probe) stall() {
	count(&p.stats.WindowStalls, p.windowStalls)
	p.span.OnStall()
	p.event(trace.KindStall, object.NilOID, trace.NoPage, trace.NoPage, "")
}

// retry books a reference re-queued after a transient fault.
func (p *probe) retry(r *Ref) {
	count(&p.stats.FaultRetries, p.faultRetries)
	p.span.OnRefRetry()
	p.event(trace.KindRetry, r.OID, int64(r.RID.Page), trace.NoPage, "")
}

// leave books a complex object leaving the window, live objects left
// in it: emitted (KindEmit), abandoned (KindAbort, note "" for a
// predicate, else the lifecycle reason) or quarantined
// (KindQuarantine).
func (p *probe) leave(kind string, root object.OID, note string, live int) {
	p.occupancy.Set(int64(live))
	switch kind {
	case trace.KindEmit:
		count(&p.stats.Assembled, p.assembled)
	case trace.KindAbort:
		count(&p.stats.Aborted, p.aborted)
	default:
		count(&p.stats.Skipped, p.skipped)
	}
	p.event(kind, root, trace.NoPage, trace.NoPage, note)
}
