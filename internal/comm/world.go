// Package comm is the message-passing substrate that stands in for MPI:
// a World of ranks, each executing on its own goroutine, exchanging
// tagged point-to-point messages and running collective operations
// (barrier, broadcast, reduce, allreduce, gather, all-to-all) built on
// the same binomial/dissemination algorithms MPI implementations use.
//
// Real mode executes the actual algorithms with real data at laptop
// scale; the model mode of the experiments reuses the identical message
// *schedules* (who sends how many bytes to whom) and times them on the
// machine model instead. The World therefore records a per-rank traffic
// log that both modes share.
package comm

import (
	"fmt"
	"sync"

	"bgpvr/internal/critpath"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/trace"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// message is one in-flight point-to-point message. sentAt is the
// sender's clock reading, stamped only while a critical-path recorder
// is attached; the matching Recv turns it into a dependency edge.
type message struct {
	src, tag int
	data     []byte
	sentAt   float64
}

// mailbox holds undelivered messages for one rank.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	closed  bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// TrafficStats aggregates the messages a World has carried. Barrier
// signals are not counted: they carry no data, and a rank can still be
// sending its last barrier signal after another rank has left the
// barrier, so counting them would make a stage's traffic depend on
// goroutine scheduling.
type TrafficStats struct {
	Messages   int
	TotalBytes int64
}

// World is a communicator over a fixed number of ranks.
type World struct {
	size  int
	boxes []*mailbox

	statMu sync.Mutex
	stats  TrafficStats

	tracer *trace.Tracer
	net    *telemetry.NetTelemetry
	cp     *critpath.Recorder
}

// NewWorld creates a communicator with p ranks. p must be >= 1.
func NewWorld(p int) *World {
	if p < 1 {
		panic("comm: NewWorld requires p >= 1")
	}
	w := &World{size: p, boxes: make([]*mailbox, p)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Stats returns the cumulative traffic carried so far.
func (w *World) Stats() TrafficStats {
	w.statMu.Lock()
	defer w.statMu.Unlock()
	return w.stats
}

// ResetStats zeroes the traffic counters (used between pipeline stages).
func (w *World) ResetStats() {
	w.statMu.Lock()
	defer w.statMu.Unlock()
	w.stats = TrafficStats{}
}

// SetTracer attaches a tracer whose per-rank handles Run passes to
// each Comm; instrumented operations then record spans and counters.
// The default (nil) tracer keeps every instrumented path a free no-op.
// Call before Run.
func (w *World) SetTracer(t *trace.Tracer) { w.tracer = t }

// SetNetTelemetry attaches a network-telemetry sink: Send histograms
// every payload size, the collectives histogram their per-call
// payloads, and the MPI-IO aggregators record their physical access
// sizes. The default (nil) sink keeps every instrumented path a free
// no-op. Call before Run.
func (w *World) SetNetTelemetry(nt *telemetry.NetTelemetry) { w.net = nt }

// SetCritPath attaches a critical-path recorder: every send→recv match
// then records a dependency edge (classified by message tag, or by the
// receiver's SetDepKind override), which the critpath analyzer turns
// into the causal event graph. The default (nil) recorder keeps the
// hooks free no-ops. Call before Run.
func (w *World) SetCritPath(r *critpath.Recorder) { w.cp = r }

// Run executes fn concurrently on every rank and waits for all of them.
// The first non-nil error (or recovered panic) is returned; remaining
// ranks still run to completion unless they block forever on a rank that
// died — to avoid that, a dying rank closes every mailbox, causing
// blocked Recvs to panic with a clear message rather than deadlock.
func (w *World) Run(fn func(c *Comm) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("comm: rank %d panicked: %v", rank, p)
					w.abort()
				}
			}()
			if err := fn(&Comm{w: w, rank: rank, tr: w.tracer.Rank(rank)}); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				w.abort()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// abort wakes all blocked receivers so a failed run terminates.
func (w *World) abort() {
	for _, b := range w.boxes {
		b.mu.Lock()
		b.closed = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Comm is one rank's handle on the World.
type Comm struct {
	w    *World
	rank int
	tr   *trace.Rank

	// depKind overrides the tag-based dependency classification while
	// non-zero (set around the MPI-IO aggregator exchange and the
	// compositing fragment exchange). Only this rank's goroutine
	// touches it.
	depKind critpath.DepKind
}

// Rank returns this rank's id in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Trace returns this rank's tracing handle — nil (a valid no-op
// handle) when no tracer is attached — so the layers above the
// runtime can record their own spans and counters.
func (c *Comm) Trace() *trace.Rank { return c.tr }

// Net returns the world's network-telemetry sink — nil (a valid no-op
// sink) when none is attached — so the layers above the runtime (the
// MPI-IO aggregators, compositors) can record their own histograms.
func (c *Comm) Net() *telemetry.NetTelemetry { return c.w.net }

// CritPath returns the world's critical-path recorder — nil (a valid
// no-op recorder) when none is attached.
func (c *Comm) CritPath() *critpath.Recorder { return c.w.cp }

// SetDepKind sets how this rank's subsequent Recv matches classify
// their dependency edges, overriding the tag-based default. Pass
// critpath.DepAuto to restore the default. Callers bracket an exchange:
//
//	c.SetDepKind(critpath.DepFragment)
//	defer c.SetDepKind(critpath.DepAuto)
func (c *Comm) SetDepKind(k critpath.DepKind) { c.depKind = k }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.size }

// Send delivers data to rank dst with the given tag. It never blocks
// (buffered, like an eager-protocol MPI_Send). The data slice is owned
// by the receiver after the call; the caller must not modify it.
func (c *Comm) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("comm: Send to invalid rank %d", dst))
	}
	if tag != tagBarrier {
		c.w.statMu.Lock()
		c.w.stats.Messages++
		c.w.stats.TotalBytes += int64(len(data))
		c.w.statMu.Unlock()
	}
	c.tr.Add(trace.CounterMessages, 1)
	c.tr.Add(trace.CounterBytesSent, int64(len(data)))
	c.w.net.ObserveSend(int64(len(data)))
	var sentAt float64
	if c.w.cp != nil {
		sentAt = c.w.cp.Now()
	}

	b := c.w.boxes[dst]
	b.mu.Lock()
	b.pending = append(b.pending, message{src: c.rank, tag: tag, data: data, sentAt: sentAt})
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Recv blocks until a message with the given tag arrives from src
// (or from anyone, when src == AnySource) and returns its source and
// payload. Messages from the same source with the same tag are received
// in the order they were sent; other messages may overtake.
func (c *Comm) Recv(src, tag int) (from int, data []byte) {
	sp := c.tr.Begin(trace.PhaseComm, "recv")
	defer sp.End()
	b := c.w.boxes[c.rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.pending {
			if m.tag != tag {
				continue
			}
			if src != AnySource && m.src != src {
				continue
			}
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			if cp := c.w.cp; cp != nil {
				kind := c.depKind
				if kind == critpath.DepAuto {
					kind = classifyTag(m.tag)
				}
				cp.Record(kind, m.src, c.rank, m.sentAt, cp.Now(), int64(len(m.data)))
			}
			return m.src, m.data
		}
		if b.closed {
			panic("comm: Recv on aborted world")
		}
		b.cond.Wait()
	}
}

// classifyTag maps a message tag to a dependency kind by the reserved
// collective tag ranges: barrier rounds are DepBarrier, the other
// collectives' internal exchanges are DepCollective, everything else
// is a plain point-to-point DepMessage.
func classifyTag(tag int) critpath.DepKind {
	switch {
	case tag >= tagBcast:
		return critpath.DepCollective
	case tag >= tagBarrier:
		return critpath.DepBarrier
	default:
		return critpath.DepMessage
	}
}
