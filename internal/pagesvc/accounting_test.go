package pagesvc

import (
	"context"
	"path/filepath"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// TestHeadAccountingAgreesAcrossDevices drives one read/write sequence
// through the three devices that model a head — the in-memory Sim, the
// file-backed FileDevice and the page-service Client — each with a
// query span and a collecting tracer attached. The paper's metric must
// not depend on where the pages live: the three must report identical
// Stats, identical span read and seek counters, and identical
// disk-layer events.
func TestHeadAccountingAgreesAcrossDevices(t *testing.T) {
	const pages = 64
	type op struct {
		page  disk.PageID
		write bool
		park  bool // ResetHead instead of an access
	}
	seq := []op{
		{page: 10, write: true}, {page: 40}, {page: 3}, {page: 3},
		{page: 63, write: true}, {page: 0}, {park: true}, {page: 12},
		{page: 50}, {page: 7, write: true}, {page: 7}, {page: 33},
	}

	sim := func(t *testing.T) disk.Device { return disk.New(pages) }
	file := func(t *testing.T) disk.Device {
		d, err := disk.OpenFile(filepath.Join(t.TempDir(), "db.pages"), disk.DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Allocate(pages); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	client := func(t *testing.T) disk.Device {
		srv := NewServer([]disk.Device{disk.New(pages)}, ServerConfig{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := Dial(ClientConfig{Primary: addr, Dev: DataDev})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	type diskEvent struct {
		Kind             string
		Page, Head, Dist int64
		QID              uint64
	}
	type result struct {
		stats  disk.Stats
		span   qtrace.Counters
		events []diskEvent
	}
	run := func(t *testing.T, dev disk.Device) result {
		col := trace.NewCollector()
		if !disk.AttachTracer(dev, trace.New(col)) {
			t.Fatal("device does not accept a tracer")
		}
		qc := qtrace.NewCollector(1)
		qt, root := qc.Begin("accounting")
		ctx := qtrace.With(context.Background(), root)
		buf := make([]byte, dev.PageSize())
		for _, o := range seq {
			var err error
			switch {
			case o.park:
				dev.ResetHead()
			case o.write:
				buf[0] = byte(o.page)
				err = dev.WritePage(o.page, buf)
			default:
				err = disk.ReadPageCtx(ctx, dev, o.page, buf)
			}
			if err != nil {
				t.Fatalf("%+v: %v", o, err)
			}
		}
		qc.Finish(qt, "ok", nil)
		res := result{stats: dev.Stats(), span: qt.Total()}
		for _, e := range col.Events() {
			if e.Layer == trace.LayerDisk {
				res.events = append(res.events, diskEvent{e.Kind, e.Page, e.Head, e.Dist, e.QID})
			}
		}
		return res
	}

	want := run(t, sim(t))
	if want.stats.Reads != 8 || want.stats.Writes != 3 || len(want.events) != 11 {
		t.Fatalf("reference run: stats %+v, %d events", want.stats, len(want.events))
	}
	if e := want.events[1]; e.Kind != trace.KindRead || e.QID == 0 {
		t.Errorf("reference run: read event %+v not attributed to the query", e)
	}
	if want.span.Reads != want.stats.Reads || want.span.SeekPages != want.stats.SeekReads {
		t.Errorf("reference run: span reads/seek %d/%d, device %d/%d",
			want.span.Reads, want.span.SeekPages, want.stats.Reads, want.stats.SeekReads)
	}
	for _, tc := range []struct {
		name string
		dev  func(*testing.T) disk.Device
	}{{"file", file}, {"client", client}} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(t, tc.dev(t))
			if got.stats != want.stats {
				t.Errorf("stats %+v, sim %+v", got.stats, want.stats)
			}
			if got.span.Reads != want.span.Reads || got.span.SeekPages != want.span.SeekPages {
				t.Errorf("span reads/seek %d/%d, sim %d/%d",
					got.span.Reads, got.span.SeekPages, want.span.Reads, want.span.SeekPages)
			}
			if len(got.events) != len(want.events) {
				t.Fatalf("%d disk events, sim %d", len(got.events), len(want.events))
			}
			for i := range got.events {
				if got.events[i] != want.events[i] {
					t.Errorf("event %d: %+v, sim %+v", i, got.events[i], want.events[i])
				}
			}
		})
	}
}
