package main

import (
	"context"
	"fmt"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/query"
	"revelation/internal/volcano"
)

// queryOut is one revealed query's outcome.
type queryOut struct {
	digest digest
	comps  int64 // components in the emitted complex objects
	stats  assembly.Stats
}

// runQuery reveals q into a plan and drains it under ctx, the way a
// caller of the library would. Traced, it wraps the locator and the
// scheduler and records query.reveal and assembly.drain spans under
// root. The result digest is computed by the caller's check, outside
// the timed region: runQuery returns the drained items.
func runQuery(ctx context.Context, tr *tracer, n *counts, root *span, store *object.Store, q *query.Query, opts assembly.Options) ([]volcano.Item, assembly.Stats, error) {
	var qc *cursor
	if tr.active() {
		qc = &cursor{}
		store = storeFor(store, tr, qc, n)
		base := opts.CustomScheduler
		if base == nil {
			// The scheduler assembly.Operator.Open would build.
			if len(q.NodePreds) > 0 {
				base = assembly.NewPredicateFirst(opts.Scheduler)
			} else {
				base = assembly.NewScheduler(opts.Scheduler)
			}
		}
		opts.CustomScheduler = wrapScheduler(base, tr, qc, n)
	}
	rs := tr.child(root, "query.reveal")
	plan, err := query.Reveal(store, q, opts)
	rs.end()
	if err != nil {
		return nil, assembly.Stats{}, err
	}
	op, ok := plan.(*assembly.Operator)
	if !ok {
		return nil, assembly.Stats{}, fmt.Errorf("revealed plan is %T, want the assembly operator", plan)
	}
	drain := tr.child(root, "assembly.drain")
	qc.set(drain)
	items, err := volcano.DrainCtx(withSpan(ctx, drain), plan)
	drain.end()
	return items, op.Stats(), err
}

// timedQuery runs one query and returns its latency, then fingerprints
// the result outside the timed region.
func timedQuery(tr *tracer, n *counts, qid uint64, store *object.Store, q *query.Query, opts assembly.Options) (queryOut, time.Duration, error) {
	root := tr.root("bench.query", qid)
	t0 := time.Now()
	items, st, err := runQuery(withSpan(context.Background(), root), tr, n, root, store, q, opts)
	lat := time.Since(t0)
	root.end()
	if err != nil {
		return queryOut{}, lat, err
	}
	d, comps, err := resultDigest(items)
	return queryOut{digest: d, comps: comps, stats: st}, lat, err
}

// openFile reopens st's heap extent over another pool.
func openFile(pool *buffer.Pool, st *object.Store) *heap.File {
	return heap.Open(pool, st.File.First(), st.File.NumPages())
}

// poolCounts are the deterministic buffer counters.
type poolCounts struct{ Hits, Faults, Evictions, Flushes int64 }

func poolDelta(after, before buffer.Stats) poolCounts {
	d := after.Sub(before)
	return poolCounts{d.Hits, d.Faults, d.Evictions, d.Flushes}
}

func (c *poolCounts) add(o poolCounts) {
	c.Hits += o.Hits
	c.Faults += o.Faults
	c.Evictions += o.Evictions
	c.Flushes += o.Flushes
}

// asmCounts are the deterministic assembly counters.
type asmCounts struct{ Assembled, Aborted, Fetched, Resolved, Comps int64 }

func (a *asmCounts) add(st assembly.Stats, comps int64) {
	a.Assembled += int64(st.Assembled)
	a.Aborted += int64(st.Aborted)
	a.Fetched += int64(st.Fetched)
	a.Resolved += int64(st.Resolved)
	a.Comps += comps
}

// detCounts are the counters a fixed, sequential slice of a workload
// must reproduce exactly: across runs at one seed, across the epochs
// of one run, and between the untraced and the traced run.
type detCounts struct {
	Ops     int64 // queries plus write batches
	Dev     devCounts
	Pool    poolCounts
	Asm     asmCounts
	Results digest // sum over the slice's queries
	// UserBytes is the encoded size of the records written.
	UserBytes int64
}

func (d *detCounts) addQuery(o queryOut) {
	d.Ops++
	d.Asm.add(o.stats, o.comps)
	d.Results.N += o.digest.N
	d.Results.Sum += o.digest.Sum
}
