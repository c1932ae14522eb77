package trace_test

import (
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/gen"
	"revelation/internal/trace"
)

// elevatorModel replays the assembly-layer events of an elevator run
// against a model of the SCAN discipline: a multiset of pending pages
// (fed by pend events, drained by choose events) and a sweep direction.
// Every choose must pick the nearest pending page in the current
// direction; the direction may change only when the current sweep has
// no pending page left — never mid-sweep.
//
// The run must be abort-, fault-, and batch-free so that pend/choose
// events pair one-to-one and no dead references linger in the model.
func elevatorModel(t *testing.T, events []trace.Event) {
	t.Helper()
	pending := map[int64]int{}
	// candidates returns the nearest pending page at or above h (the
	// up candidate) and the farthest-advanced one below h (down).
	candidates := func(h int64) (up, down int64, hasUp, hasDown bool) {
		for p, n := range pending {
			if n <= 0 {
				continue
			}
			if p >= h {
				if !hasUp || p < up {
					up, hasUp = p, true
				}
			} else {
				if !hasDown || p > down {
					down, hasDown = p, true
				}
			}
		}
		return
	}
	dirUp := true
	chooses := 0
	for _, e := range events {
		if e.Layer != trace.LayerAssembly {
			continue
		}
		switch e.Kind {
		case trace.KindPend:
			pending[e.Page]++
		case trace.KindTake:
			t.Fatalf("seq %d: page-batch take in a batch-free run", e.Seq)
		case trace.KindChoose:
			chooses++
			h, p := e.Head, e.Page
			up, down, hasUp, hasDown := candidates(h)
			if !hasUp && !hasDown {
				t.Fatalf("seq %d: choose page %d with empty pending set", e.Seq, p)
			}
			if dirUp {
				if hasUp {
					if p != up {
						t.Fatalf("seq %d: sweeping up from head %d, chose page %d, nearest pending above is %d", e.Seq, h, p, up)
					}
				} else {
					// Legal reversal: nothing left above the head.
					if p != down {
						t.Fatalf("seq %d: reversing down from head %d, chose page %d, want %d", e.Seq, h, p, down)
					}
					dirUp = false
				}
			} else {
				if hasDown {
					// Exact hits are served in place regardless of
					// direction; otherwise the sweep continues down.
					want := down
					if hasUp && up == h {
						want = h
					}
					if p != want {
						t.Fatalf("seq %d: sweeping down from head %d, chose page %d, want %d", e.Seq, h, p, want)
					}
				} else {
					if p != up {
						t.Fatalf("seq %d: reversing up from head %d, chose page %d, want %d", e.Seq, h, p, up)
					}
					dirUp = true
				}
			}
			if pending[p] <= 0 {
				t.Fatalf("seq %d: chose page %d that was never pended", e.Seq, p)
			}
			pending[p]--
		}
	}
	if chooses == 0 {
		t.Fatal("trace contains no scheduling decisions")
	}
	for p, n := range pending {
		if n != 0 {
			t.Errorf("page %d left with %d unresolved pends after the run", p, n)
		}
	}
}

// TestElevatorSweepProperty checks the elevator invariant on a real
// traced run across the clustering policies: the head never reverses
// direction while the current sweep still has pending work.
func TestElevatorSweepProperty(t *testing.T) {
	for _, cl := range []gen.Clustering{gen.Unclustered, gen.InterObject, gen.IntraObject} {
		t.Run(cl.String(), func(t *testing.T) {
			db, err := gen.Build(gen.Config{
				NumComplexObjects: 150,
				Clustering:        cl,
				Seed:              91,
			})
			if err != nil {
				t.Fatalf("gen.Build: %v", err)
			}
			coldStart(t, db)
			r, events, _, _, _ := tracedAssembly(t, db, assembly.Options{Window: 10, Scheduler: assembly.Elevator})
			elevatorModel(t, events)
			if r.PeakWindow > 10 {
				t.Errorf("peak window occupancy %d exceeds configured window 10", r.PeakWindow)
			}
		})
	}
}

// TestWindowOccupancyBound checks the second window property across
// schedulers and window sizes: replayed occupancy never exceeds the
// configured W, and every admitted object eventually leaves the window.
func TestWindowOccupancyBound(t *testing.T) {
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 150,
		Clustering:        gen.Unclustered,
		Seed:              91,
	})
	if err != nil {
		t.Fatalf("gen.Build: %v", err)
	}
	for _, kind := range []assembly.SchedulerKind{
		assembly.DepthFirst, assembly.BreadthFirst, assembly.Elevator,
	} {
		for _, w := range []int{1, 7, 50} {
			coldStart(t, db)
			r, _, _, _, _ := tracedAssembly(t, db, assembly.Options{Window: w, Scheduler: kind})
			if r.PeakWindow > w {
				t.Errorf("%s W=%d: peak occupancy %d exceeds window", kind, w, r.PeakWindow)
			}
			if r.PeakWindow == 0 {
				t.Errorf("%s W=%d: no occupancy recorded", kind, w)
			}
			if last := r.Occupancy[len(r.Occupancy)-1].Live; last != 0 {
				t.Errorf("%s W=%d: window not empty at end of run: %d live", kind, w, last)
			}
			if r.Admitted != 150 || r.Assembled != 150 {
				t.Errorf("%s W=%d: admitted %d assembled %d, want 150/150", kind, w, r.Admitted, r.Assembled)
			}
		}
	}
}
