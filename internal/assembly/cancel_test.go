package assembly_test

// Lifecycle-abort tests: a query cancelled mid-assembly — including
// with quarantined complex objects already on the books — must leave
// the buffer pool with zero pins and zero reserved frames, balance the
// trace ledger (every admit matched by an emit, abort, or quarantine),
// and surface the context error from Next rather than hanging.

import (
	"context"
	"errors"
	"testing"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/trace"
	"revelation/internal/volcano"
)

// drainUntil pulls from the operator until stop reports true (based on
// items seen and current stats) or the operator ends, returning the
// terminal error (nil while stopped early).
func drainUntil(t *testing.T, op *assembly.Operator, stop func(seen int) bool) (int, error) {
	t.Helper()
	seen := 0
	for !stop(seen) {
		_, err := op.Next()
		if errors.Is(err, volcano.Done) {
			return seen, volcano.Done
		}
		if err != nil {
			return seen, err
		}
		seen++
	}
	return seen, nil
}

// TestCancelMidAssemblyWithQuarantine is the satellite abort-path test:
// permanent faults quarantine some complex objects, then the query is
// cancelled with live window slots outstanding. The abort path must
// unpin everything, release the reservation, and emit abort events
// carrying the cancellation reason so the trace ledger still balances.
func TestCancelMidAssemblyWithQuarantine(t *testing.T) {
	w := buildFaultWorld(t, 120, 77)
	w.dev.SetConfig(disk.FaultConfig{Seed: 99, PermanentRate: 0.03})
	if err := w.db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	pool0 := w.db.Pool.Stats()

	col := trace.NewCollector()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	op := assembly.New(rootsSource(w.db.Roots), w.db.Store, w.db.Template, assembly.Options{
		Window:         8,
		Scheduler:      assembly.Elevator,
		FaultPolicy:    assembly.SkipObject,
		PinWindowPages: true,
		ReserveFrames:  24,
		Tracer:         trace.New(col),
	})
	volcano.Bind(ctx, op)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if got := w.db.Pool.ReservedFrames(); got != 24 {
		t.Fatalf("reserved %d frames after Open, want 24", got)
	}

	// Assemble until at least one quarantine happened and some objects
	// emitted, so the cancel lands on a window with real history.
	seen, err := drainUntil(t, op, func(seen int) bool {
		st := op.Stats()
		return seen >= 10 && st.Skipped >= 1
	})
	if err != nil {
		t.Fatalf("assembly before cancel (%d emitted, stats %+v): %v", seen, op.Stats(), err)
	}
	if op.Stats().Skipped < 1 {
		t.Fatal("no quarantine before cancel — fault injection is vacuous")
	}

	cancel()
	if _, err := op.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel: %v, want context.Canceled", err)
	}
	// The error is terminal and stable: the books were settled once.
	if _, err := op.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Next after cancel: %v, want context.Canceled", err)
	}

	st := op.Stats()
	if err := op.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}

	// Everything returns to zero: pins, reservations, and the window.
	if got := w.db.Pool.PinnedFrames(); got != 0 {
		t.Errorf("%d frames still pinned after cancel+Close", got)
	}
	if got := w.db.Pool.ReservedFrames(); got != 0 {
		t.Errorf("%d frames still reserved after cancel+Close", got)
	}

	// The trace ledger balances: every admitted complex object left the
	// window exactly once (emit, abort, or quarantine), and the
	// lifecycle aborts carry the cancellation reason.
	rs := trace.ReplayEvents(col.Events())
	if rs.Admitted != rs.Assembled+rs.Aborted+rs.Quarantined {
		t.Errorf("ledger unbalanced: %d admitted != %d emitted + %d aborted + %d quarantined",
			rs.Admitted, rs.Assembled, rs.Aborted, rs.Quarantined)
	}
	canceledAborts := 0
	for _, e := range col.Events() {
		if e.Layer == trace.LayerAssembly && e.Kind == trace.KindAbort && e.Note == trace.ReasonCanceled {
			canceledAborts++
		}
	}
	if canceledAborts == 0 {
		t.Error("no abort events carry the canceled reason")
	}
	if st.Aborted < canceledAborts {
		t.Errorf("stats aborted %d < %d canceled abort events", st.Aborted, canceledAborts)
	}

	// The replayed stats agree with the operator's own counters.
	if rs.Assembled != st.Assembled || rs.Quarantined != st.Skipped || rs.Aborted != st.Aborted {
		t.Errorf("replay %+v disagrees with stats %+v", rs, st)
	}

	// And the layers below agree on the run's faults: every injected
	// permanent fault surfaced through the pool as a terminal error,
	// none was retried, and each quarantine is backed by one of them.
	faults, pool := w.dev.FaultStats(), w.db.Pool.Stats().Sub(pool0)
	if pool.PermanentErrors != faults.Permanent || pool.Retries != 0 || pool.TransientErrors != 0 {
		t.Errorf("pool delta %+v disagrees with injector %+v", pool, faults)
	}
	if st.Skipped > int(faults.Permanent) {
		t.Errorf("%d quarantines but only %d permanent faults injected", st.Skipped, faults.Permanent)
	}
}

// TestDeadlineMidAssembly drives the deadline flavor of the same path:
// the operator observes an expired deadline at the next scheduling step
// and aborts the window with reason "deadline". The deadline is bound
// mid-run (after the window filled) so the expiry deterministically
// lands on live slots.
func TestDeadlineMidAssembly(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 100, Clustering: gen.Unclustered, Seed: 7})
	col := trace.NewCollector()
	op := assembly.New(rootsSource(db.Roots), db.Store, db.Template, assembly.Options{
		Window:         6,
		Scheduler:      assembly.Elevator,
		PinWindowPages: true,
		ReserveFrames:  12,
		Tracer:         trace.New(col),
	})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := drainUntil(t, op, func(seen int) bool { return seen >= 5 }); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	volcano.Bind(ctx, op)
	if _, err := op.Next(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next past deadline: %v, want context.DeadlineExceeded", err)
	}
	st := op.Stats()
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Pool.PinnedFrames(); got != 0 {
		t.Errorf("%d frames still pinned after deadline abort", got)
	}
	if got := db.Pool.ReservedFrames(); got != 0 {
		t.Errorf("%d frames still reserved after deadline abort", got)
	}
	deadlineAborts := 0
	for _, e := range col.Events() {
		if e.Layer == trace.LayerAssembly && e.Kind == trace.KindAbort && e.Note == trace.ReasonDeadline {
			deadlineAborts++
		}
	}
	if deadlineAborts == 0 {
		t.Error("no abort events carry the deadline reason")
	}
	if st.Aborted != deadlineAborts {
		t.Errorf("stats aborted %d != %d deadline abort events", st.Aborted, deadlineAborts)
	}
}
