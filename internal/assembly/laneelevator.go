package assembly

import (
	"fmt"

	"revelation/internal/disk"
)

// BatchScheduler is implemented by schedulers that can hand out one
// reference per independent device lane in a single step, so the
// operator can fetch them concurrently — one in-flight read per lane —
// while preserving each lane's own service order.
type BatchScheduler interface {
	Scheduler
	// Lanes reports how many independent lanes the scheduler sweeps.
	Lanes() int
	// LaneOf routes a page to its lane index.
	LaneOf(p disk.PageID) int
	// NextBatch removes and returns up to one live reference per
	// non-empty lane, each chosen by that lane's own policy relative to
	// its own last serviced page. Lanes appear in ascending index order
	// so the batch composition is deterministic. An empty batch means no
	// references remain.
	NextBatch(head disk.PageID) []*Ref
}

// LaneElevator keeps one SCAN elevator per independent device lane,
// each sweeping relative to its *own* last serviced page. A lane
// function routes every page to its lane. It is the multi-device
// scheduler sketched in the paper's Section 7 ("At present, the
// assembly operator can only handle one device"): with the database on
// several arms, a single global SCAN drags every arm around, while one
// elevator per arm keeps all arms busy. NewMultiElevator builds it over
// a stripe, NewShardElevator over a shard router's rendezvous
// assignment; NextBatch exposes one reference per lane so the operator
// can keep every shard's pipe full concurrently while each lane's order
// stays a pure SCAN.
type LaneElevator struct {
	kind     string // policy name prefix: "multi-elevator" or "shard-elevator"
	laneOf   func(disk.PageID) int
	lanes    []*elevator
	lastPage []disk.PageID
	rr       int
}

// NewMultiElevator builds a scheduler for n striped devices; deviceOf
// routes a global page to its device index (use disk.Striped.DeviceOf).
func NewMultiElevator(n int, deviceOf func(disk.PageID) int) *LaneElevator {
	return newLaneElevator("multi-elevator", n, deviceOf)
}

// NewShardElevator builds a scheduler for n shards; shardOf routes a
// global page to its shard index (use shard.Router.ShardOf).
func NewShardElevator(n int, shardOf func(disk.PageID) int) *LaneElevator {
	return newLaneElevator("shard-elevator", n, shardOf)
}

func newLaneElevator(kind string, n int, laneOf func(disk.PageID) int) *LaneElevator {
	if n < 1 {
		n = 1
	}
	s := &LaneElevator{
		kind:     kind,
		laneOf:   laneOf,
		lanes:    make([]*elevator, n),
		lastPage: make([]disk.PageID, n),
	}
	for i := range s.lanes {
		s.lanes[i] = &elevator{dirUp: true}
	}
	return s
}

// Name implements Scheduler.
func (s *LaneElevator) Name() string {
	return fmt.Sprintf("%s(%d)", s.kind, len(s.lanes))
}

// Lanes implements BatchScheduler.
func (s *LaneElevator) Lanes() int { return len(s.lanes) }

// LaneOf implements BatchScheduler.
func (s *LaneElevator) LaneOf(p disk.PageID) int {
	return s.laneOf(p) % len(s.lanes)
}

// Add implements Scheduler.
func (s *LaneElevator) Add(refs ...*Ref) {
	for _, r := range refs {
		s.lanes[s.LaneOf(r.Page())].Add(r)
	}
}

// Next implements Scheduler: among lanes with pending references,
// serve the one whose next service is cheapest for its own arm
// (shortest positioning first across lanes, SCAN within a lane). Ties
// rotate round-robin so no lane starves. This sequential path serves
// schedulers-as-usual callers; concurrent callers use NextBatch.
func (s *LaneElevator) Next(disk.PageID) *Ref {
	n := len(s.lanes)
	best, bestDist := -1, int64(1)<<62
	for i := 0; i < n; i++ {
		lane := (s.rr + i) % n
		d, ok := s.lanes[lane].peekDist(s.lastPage[lane])
		if !ok {
			continue
		}
		if d < bestDist {
			best, bestDist = lane, d
		}
	}
	if best < 0 {
		return nil
	}
	r := s.lanes[best].Next(s.lastPage[best])
	if r == nil {
		return nil
	}
	s.lastPage[best] = r.Page()
	s.rr = (best + 1) % n
	return r
}

// NextBatch implements BatchScheduler: one reference per non-empty
// lane, in lane order, each advancing its own head.
func (s *LaneElevator) NextBatch(disk.PageID) []*Ref {
	var batch []*Ref
	for lane, el := range s.lanes {
		r := el.Next(s.lastPage[lane])
		if r == nil {
			continue
		}
		s.lastPage[lane] = r.Page()
		batch = append(batch, r)
	}
	return batch
}

// TakeOnPage implements Scheduler.
func (s *LaneElevator) TakeOnPage(p disk.PageID) []*Ref {
	return s.lanes[s.LaneOf(p)].TakeOnPage(p)
}

// Len implements Scheduler.
func (s *LaneElevator) Len() int {
	total := 0
	for _, l := range s.lanes {
		total += l.Len()
	}
	return total
}

var _ BatchScheduler = (*LaneElevator)(nil)
