package wal

import (
	"errors"
	"testing"

	"revelation/internal/disk"
)

// FuzzWALReader hardens the log scanner against arbitrary device
// bytes — the state a crash, a torn sync or a corrupt disk can leave.
// Whatever the log pages hold, draining a Reader must not panic, must
// stop at ErrEndOfLog or ErrTornTail and at no other error, must hand
// out LSNs consecutively from 1, and must never move its offset
// backwards.
func FuzzWALReader(f *testing.F) {
	const ps = 128
	seed := disk.NewSim(ps, 0)
	w, err := Open(seed)
	if err != nil {
		f.Fatal(err)
	}
	for _, step := range []func() (uint64, error){
		func() (uint64, error) { return w.Append(3, testImage(f, ps, "first")) },
		func() (uint64, error) { return w.AppendOwnership(0, 8, "m1") },
		func() (uint64, error) { return w.Append(5, testImage(f, ps, "second")) },
	} {
		if _, err := step(); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		f.Fatal(err)
	}
	var log []byte
	buf := make([]byte, ps)
	for p := 0; p < seed.NumPages(); p++ {
		if err := seed.ReadPage(disk.PageID(p), buf); err != nil {
			f.Fatal(err)
		}
		log = append(log, buf...)
	}
	f.Add(log)
	f.Add(log[:len(log)/2])
	f.Add(log[:recHdrSize])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dev := disk.NewSim(ps, (len(data)+ps-1)/ps)
		for p := 0; p*ps < len(data); p++ {
			img := make([]byte, ps)
			copy(img, data[p*ps:])
			if err := dev.WritePage(disk.PageID(p), img); err != nil {
				t.Fatal(err)
			}
		}
		r := NewReader(dev)
		var off int64
		for want := uint64(1); ; want++ {
			rec, err := r.Next()
			if r.Offset() < off {
				t.Fatalf("offset moved back from %d to %d", off, r.Offset())
			}
			off = r.Offset()
			if errors.Is(err, ErrEndOfLog) || errors.Is(err, ErrTornTail) {
				return
			}
			if err != nil {
				t.Fatalf("Next: %v, want a record, ErrEndOfLog or ErrTornTail", err)
			}
			if rec.LSN != want {
				t.Fatalf("record LSN %d, want %d", rec.LSN, want)
			}
		}
	})
}
