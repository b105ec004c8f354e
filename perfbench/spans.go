package main

import (
	"sync"
	"time"

	"nest/internal/obs"
)

// spanStats is the dispatcher/transfer split of the traced phase, built
// from the appliance's own span ring.
type spanStats struct {
	requestSelfUs []float64 // transfer request minus its sched.wait + data children
	controlUs     []float64 // timed (1 in 32) control requests
	waitUs        []float64 // sched.wait
	dataUs        []float64 // data
	stripes       int64     // stripe spans under GET requests
	getRequests   int64     // GET request spans seen
	spans         int64     // distinct spans captured
}

// childAcc sums the direct children of one request span until the
// request span itself is seen.
type childAcc struct {
	ns      int64
	stripes int64
	seen    int // drain round the entry was last touched
}

// childOf links a data span to the request span above it.
type childOf struct {
	req  uint64
	seen int
}

// spanCollector drains Tracer().Snapshot() periodically while the run
// is going, deduplicating by span ID against the previous drain (a span
// still in the ring was captured then).
type spanCollector struct {
	tracer *obs.Tracer
	stop   chan struct{}
	done   sync.WaitGroup

	round     int
	prev      map[uint64]struct{}
	cur       map[uint64]struct{}
	children  map[uint64]childAcc // by request span ID
	dataOwner map[uint64]childOf  // data span ID -> its request
	st        spanStats
}

func startSpanCollector(t *obs.Tracer, every time.Duration) *spanCollector {
	sc := &spanCollector{
		tracer:    t,
		stop:      make(chan struct{}),
		prev:      map[uint64]struct{}{},
		cur:       map[uint64]struct{}{},
		children:  map[uint64]childAcc{},
		dataOwner: map[uint64]childOf{},
	}
	sc.drain() // spans from set-up are not part of the run
	sc.st = spanStats{}
	sc.done.Add(1)
	go func() {
		defer sc.done.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-sc.stop:
				return
			case <-tick.C:
				sc.drain()
			}
		}
	}()
	return sc
}

// finish stops the collector after one last drain.
func (sc *spanCollector) finish() spanStats {
	close(sc.stop)
	sc.done.Wait()
	sc.drain()
	return sc.st
}

func (sc *spanCollector) drain() {
	sc.round++
	fresh := sc.tracer.Snapshot()
	clear(sc.cur)
	n := 0
	for _, s := range fresh {
		sc.cur[s.ID] = struct{}{}
		if _, ok := sc.prev[s.ID]; ok {
			continue
		}
		fresh[n] = s
		n++
	}
	sc.prev, sc.cur = sc.cur, sc.prev
	sc.add(fresh[:n])
}

// add folds one batch of new spans in. Children are recorded before the
// request that owns them, but a snapshot orders spans by start time, so
// a batch is read in two passes: children first, then requests.
func (sc *spanCollector) add(batch []obs.Span) {
	st := &sc.st
	st.spans += int64(len(batch))
	for i := range batch {
		s := &batch[i]
		switch s.Stage {
		case "sched.wait", "data":
			if s.Stage == "data" {
				st.dataUs = append(st.dataUs, us(s.Dur))
				sc.dataOwner[s.ID] = childOf{req: s.Parent, seen: sc.round}
			} else {
				st.waitUs = append(st.waitUs, us(s.Dur))
			}
			acc := sc.children[s.Parent]
			acc.ns += int64(s.Dur)
			acc.seen = sc.round
			sc.children[s.Parent] = acc
		case "stripe":
			// Stripes hang under the data span, which hangs under the
			// request.
			if owner, ok := sc.dataOwner[s.Parent]; ok {
				acc := sc.children[owner.req]
				acc.stripes++
				sc.children[owner.req] = acc
			}
		}
	}
	for i := range batch {
		s := &batch[i]
		if s.Stage != "request" {
			continue
		}
		switch s.Op {
		case "get", "put":
			acc, ok := sc.children[s.ID]
			if !ok {
				continue // children overwritten before they were drained
			}
			delete(sc.children, s.ID)
			if s.Op == "get" {
				st.getRequests++
				st.stripes += acc.stripes
			}
			st.requestSelfUs = append(st.requestSelfUs, us(selfTime(s.Dur, time.Duration(acc.ns))))
		default:
			if s.Dur > 0 {
				st.controlUs = append(st.controlUs, us(s.Dur))
			}
		}
	}
	// Children whose request span was lost never match; forget them.
	for id, acc := range sc.children {
		if sc.round-acc.seen > 100 {
			delete(sc.children, id)
		}
	}
	for id, owner := range sc.dataOwner {
		if sc.round-owner.seen > 100 {
			delete(sc.dataOwner, id)
		}
	}
}

// selfTime is a span's duration minus its children's, floored at zero
// (children are timed on another goroutine's clock reads).
func selfTime(total, children time.Duration) time.Duration {
	if d := total - children; d > 0 {
		return d
	}
	return 0
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
