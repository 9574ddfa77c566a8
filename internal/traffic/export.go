package traffic

import (
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
)

// The engine's reusable building blocks, exported for the fleet engine
// (internal/fleet), which drives months of virtual time over an
// evolving carrier population on the same per-flow machinery: the flow
// arena and its refresh walk, the arrival-flow draw on FastRand, Hist,
// LiveCounts, the diurnal curve and the class rates. Both traffic tick
// loops and the fleet's day loop, in either engine universe, run this
// one copy. The fleet also checkpoints mid-run, which needs histogram
// and RNG state to be serializable; those accessors are plain copies in
// or out, off the hot path.

// FlowEngine is the NAT surface a flow arena drives; *nat.NAT and
// *nat.Sharded both satisfy it.
type FlowEngine interface {
	TranslateOutRef(f netaddr.Flow, now time.Time) (netaddr.Flow, nat.MappingRef, nat.Verdict)
	Refresh(r nat.MappingRef, dst netaddr.Endpoint, now time.Time) bool
}

// FlowList is one subscriber's flows in a FlowArena, oldest first. The
// zero value is the empty list.
type FlowList struct{ head, tail int32 }

// Empty reports whether the list holds no flow.
func (l FlowList) Empty() bool { return l.head == 0 }

// FlowArena holds many subscribers' live flows in one slice. Each
// subscriber's list is FIFO in arrival order — the order allocation
// retries hit the NAT in, which the determinism contract pins — and dead
// nodes are recycled through a freelist, so steady-state ticks never
// allocate. Node 0 is a sentinel ending every list, which makes the zero
// FlowArena and the zero FlowList ready to use.
type FlowArena struct {
	nodes []flowNode
	free  int32
}

// flowNode is one live flow. ref is its mapping handle: while ticksLeft
// > 0 the flow refreshes the mapping through it every tick.
type flowNode struct {
	f         netaddr.Flow
	ref       nat.MappingRef
	ticksLeft int32
	next      int32
}

// newFlowArena returns an empty arena with room for capacity flows.
// Sizing it up front spares the engines' hot loops the regrowth of a
// pointer-holding slice, which the garbage collector must rescan.
func newFlowArena(capacity int) FlowArena {
	return FlowArena{nodes: make([]flowNode, 1, 1+capacity)}
}

// Push appends a flow to the tail of l.
func (a *FlowArena) Push(l *FlowList, f netaddr.Flow, ref nat.MappingRef, ticksLeft int32) {
	ni := a.free
	if ni != 0 {
		a.free = a.nodes[ni].next
	} else {
		if len(a.nodes) == 0 {
			a.nodes = append(a.nodes, flowNode{})
		}
		a.nodes = append(a.nodes, flowNode{})
		ni = int32(len(a.nodes) - 1)
	}
	a.nodes[ni] = flowNode{f: f, ref: ref, ticksLeft: ticksLeft}
	if l.tail != 0 {
		a.nodes[l.tail].next = ni
	} else {
		l.head = ni
	}
	l.tail = ni
}

// Open translates a fresh flow on e and, when that yields a mapping,
// pushes the flow onto l to live hold ticks. It returns the verdict.
func (a *FlowArena) Open(l *FlowList, e FlowEngine, f netaddr.Flow, hold int32, now time.Time) nat.Verdict {
	_, ref, v := e.TranslateOutRef(f, now)
	if v == nat.Ok {
		a.Push(l, f, ref, hold)
	}
	return v
}

// Refresh is one tick of l's flows. Each flow refreshes its mapping
// through its handle; a stale handle (the mapping idled out, was dropped
// or belongs to a discarded engine) falls back to the full translation
// path, which re-creates the mapping exactly as the packet would — a
// re-establishment attempt. A flow whose hold ran out, or that got no
// mapping, is unlinked and recycled. It returns the flows refreshed and
// the re-establishment attempts and failures.
func (a *FlowArena) Refresh(l *FlowList, e FlowEngine, now time.Time) (refreshed, attempts, failures int) {
	prev := int32(0)
	for idx := l.head; idx != 0; {
		nd := &a.nodes[idx]
		next := nd.next
		ok := e.Refresh(nd.ref, nd.f.Dst, now)
		if !ok {
			var v nat.Verdict
			_, nd.ref, v = e.TranslateOutRef(nd.f, now)
			ok = v == nat.Ok
			attempts++
			if !ok {
				failures++
			}
		}
		if ok {
			refreshed++
		}
		nd.ticksLeft--
		if nd.ticksLeft > 0 && ok {
			prev = idx
		} else {
			if prev != 0 {
				a.nodes[prev].next = next
			} else {
				l.head = next
			}
			if next == 0 {
				l.tail = prev
			}
			nd.next = a.free
			a.free = idx
		}
		idx = next
	}
	return refreshed, attempts, failures
}

// Release recycles every flow of l and empties it.
func (a *FlowArena) Release(l *FlowList) {
	for idx := l.head; idx != 0; {
		next := a.nodes[idx].next
		a.nodes[idx].next = a.free
		a.free = idx
		idx = next
	}
	*l = FlowList{}
}

// ClearRefs drops every flow's mapping handle — after an engine restart
// the old handles point into a discarded table, and a cleared handle
// takes the refresh fallback exactly like a dead one.
func (a *FlowArena) ClearRefs() {
	for i := range a.nodes {
		a.nodes[i].ref = nat.MappingRef{}
	}
}

// Walk calls fn for each flow of l, oldest first.
func (a *FlowArena) Walk(l FlowList, fn func(f netaddr.Flow, ref nat.MappingRef, ticksLeft int32)) {
	for idx := l.head; idx != 0; idx = a.nodes[idx].next {
		nd := &a.nodes[idx]
		fn(nd.f, nd.ref, nd.ticksLeft)
	}
}

// ArrivalFlow draws one legitimate arrival from src: it advances the
// destination sequence *seq, then draws the source port, then the hold
// in [1, holdSpan] ticks — the draw order every sharded-universe and
// fleet result depends on.
func (r *FastRand) ArrivalFlow(src netaddr.Addr, seq *uint64, holdSpan uint32) (netaddr.Flow, int32) {
	*seq++
	f := arrivalFlow(src, *seq, uint16(1024+r.Intn(64512)))
	return f, int32(1 + r.Intn(holdSpan))
}

// arrivalFlow is arrival seq's 5-tuple. Each flow gets a fresh source
// port (a distinct mapping on cone NATs) and a fresh destination (a
// distinct mapping on symmetric NATs). The destination address carries
// the low 32 bits of the sequence and the port the next 16, so 5-tuples
// stay distinct for 2^48 flows per stream; below 2^32 the address alone
// varies and the port is exactly 443.
func arrivalFlow(src netaddr.Addr, seq uint64, srcPort uint16) netaddr.Flow {
	return netaddr.FlowOf(netaddr.UDP,
		netaddr.EndpointOf(src, srcPort),
		netaddr.EndpointOf(dstBase+netaddr.Addr(uint32(seq)), uint16(443+(seq>>32))))
}

// Count returns the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// State returns a copy of the histogram's dense bucket counts (index =
// sample value) and its sample count, trimmed of the trailing zero
// buckets growth leaves behind.
func (h *Hist) State() ([]uint64, uint64) {
	top := len(h.counts)
	for top > 0 && h.counts[top-1] == 0 {
		top--
	}
	out := make([]uint64, top)
	copy(out, h.counts)
	return out, h.n
}

// HistFromState rebuilds a histogram from State output. It is the
// identity round-trip: quantiles, max and future merges behave exactly
// as on the original.
func HistFromState(counts []uint64, n uint64) Hist {
	h := Hist{n: n}
	if len(counts) > 0 {
		h.counts = make([]uint64, len(counts))
		copy(h.counts, counts)
	}
	return h
}

// NewFastRand returns a fast draw stream seeded at s. FastRand's whole
// state is its uint64 value, so serializing one is a cast: save
// uint64(r), restore FastRand(saved).
func NewFastRand(s uint64) FastRand { return FastRand(s) }
