package assembly_test

import (
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

// buildStriped generates an unclustered database striped over n
// simulated devices.
func buildStriped(t testing.TB, objects, n int) (*gen.Database, *disk.Striped) {
	t.Helper()
	var devs []disk.Device
	for i := 0; i < n; i++ {
		devs = append(devs, disk.New(0))
	}
	striped, err := disk.NewStriped(devs, 8)
	if err != nil {
		t.Fatal(err)
	}
	db, err := gen.Build(gen.Config{
		NumComplexObjects: objects,
		Clustering:        gen.Unclustered,
		Seed:              41,
		Device:            striped,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, striped
}

func TestAssemblyOnStripedDevice(t *testing.T) {
	db, striped := buildStriped(t, 300, 4)
	var dev0 []disk.Stats
	for _, d := range striped.Devices() {
		dev0 = append(dev0, d.Stats())
	}
	op := assembly.New(rootsSource(db.Roots), db.Store, db.Template,
		assembly.Options{Window: 25, Scheduler: assembly.Elevator})
	out := drainAssembly(t, op)
	if len(out) != 300 {
		t.Fatalf("assembled %d", len(out))
	}
	for _, inst := range out {
		verifyTree(t, db, inst)
	}
	// All four arms carried traffic.
	for i, d := range striped.Devices() {
		if d.Stats().Sub(dev0[i]).Reads == 0 {
			t.Errorf("device %d idle", i)
		}
	}
}

func TestMultiElevatorBeatsGlobalElevatorOnStripes(t *testing.T) {
	db, striped := buildStriped(t, 600, 4)

	run := func(sched assembly.Scheduler, kind assembly.SchedulerKind) int64 {
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		striped.ResetHead()
		dev0 := striped.Stats()
		op := assembly.New(rootsSource(db.Roots), db.Store, db.Template, assembly.Options{
			Window:          50,
			Scheduler:       kind,
			CustomScheduler: sched,
		})
		out := drainAssembly(t, op)
		if len(out) != 600 {
			t.Fatalf("assembled %d", len(out))
		}
		for _, inst := range out {
			verifyTree(t, db, inst)
		}
		return striped.Stats().Sub(dev0).SeekReads
	}

	global := run(nil, assembly.Elevator)
	multi := run(assembly.NewMultiElevator(4, striped.DeviceOf), 0)
	naive := run(nil, assembly.DepthFirst)

	// A global SCAN is already monotone per arm in this model, so the
	// two elevator variants are near-equivalent on *total* seek (the
	// multi-elevator's contribution is per-arm request queues — the
	// Section 7 server-per-device shape). Both must stay close to each
	// other and far below object-at-a-time.
	if multi > global*13/10 {
		t.Errorf("multi-elevator total seek %d strays from global elevator %d", multi, global)
	}
	if multi*3 > naive {
		t.Errorf("multi-elevator %d not well below object-at-a-time %d", multi, naive)
	}
}

func TestMultiElevatorCorrectAcrossWindows(t *testing.T) {
	db, striped := buildStriped(t, 200, 3)
	for _, w := range []int{1, 10, 60} {
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		op := assembly.New(rootsSource(db.Roots), db.Store, db.Template, assembly.Options{
			Window:          w,
			CustomScheduler: assembly.NewMultiElevator(3, striped.DeviceOf),
		})
		items, err := volcano.Drain(op)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if len(items) != 200 {
			t.Fatalf("w=%d: assembled %d", w, len(items))
		}
	}
}

func TestMultiElevatorName(t *testing.T) {
	m := assembly.NewMultiElevator(4, func(disk.PageID) int { return 0 })
	if m.Name() != "multi-elevator(4)" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d", m.Len())
	}
	if m.Next(0) != nil {
		t.Error("empty Next returned a ref")
	}
}
