package netsim

import (
	"math/rand"

	"tfcsim/internal/sim"
)

// PortHook observes and optionally modifies packets entering a port's
// output queue. DCTCP's ECN marker and TFC's per-port token logic are
// implemented as hooks, keeping the switch forwarding path generic.
type PortHook interface {
	// OnEnqueue runs before pkt joins the queue (and before the drop-tail
	// admission check, mirroring hardware that counts arrivals at the
	// port). It may modify pkt in place. Returning false drops the packet.
	OnEnqueue(pkt *Packet, port *Port) bool
}

// RateObserver is implemented by PortHooks that cache the port's link
// rate (TFC's token computation does). SetRate notifies the hook so a
// mid-run rate degradation reaches the cached value.
type RateObserver interface {
	OnRateChange(port *Port)
}

// LossModel decides per-packet wire loss, generalizing the uniform
// LossRate to stateful models (e.g. Gilbert–Elliott bursty loss, package
// faults). Implementations draw randomness only from r — the simulation's
// deterministic per-trial source — so injected loss is a pure function of
// the trial seed.
type LossModel interface {
	Lose(r *rand.Rand) bool
}

// Port is a unidirectional transmit port: a drop-tail FIFO feeding a link
// with fixed rate and propagation delay. A full-duplex cable between two
// nodes is a pair of Ports, one owned by each side.
type Port struct {
	sim   *sim.Simulator
	net   *Network
	Owner Node // node that transmits via this port
	Peer  Node // node at the far end of the link
	Label string

	// Sharding state (see shard.go). sh is the owner's shard — the
	// goroutine all of this port's events run on; peerSh is the receiving
	// side's. cross marks a shard-boundary link: deliveries then travel
	// through the group mailbox instead of the port-resident rxEv. idx is
	// the port's creation index, the stable identity its loss stream and
	// its delivery rank (the canonical order of simultaneous arrivals at
	// a node, identical in the sequential and sharded engines) are
	// derived from.
	sh     *netShard
	peerSh *netShard
	cross  bool
	idx    uint64
	lrand  *rand.Rand

	Rate  Rate
	Delay sim.Time // propagation delay
	// BufBytes is the queue capacity in frame bytes; 0 means unlimited.
	BufBytes int
	// Hook, if non-nil, runs for every packet entering the queue.
	Hook PortHook
	// LossRate, if positive, drops each arriving packet with this
	// probability (failure injection for tests and experiments).
	LossRate float64
	// LossModel, if non-nil, supersedes LossRate with a stateful
	// per-packet loss decision (e.g. bursty Gilbert–Elliott loss).
	LossModel LossModel

	// The FIFO is a power-of-two ring buffer: O(1) dequeue regardless of
	// backlog, where a slice-shift FIFO degenerates to O(n²) total work in
	// exactly the incast pile-ups this simulator exists to study.
	q      []*Packet
	qHead  int
	qLen   int
	qBytes int
	busy   bool

	// Batched port execution: the port owns its serialization and delivery
	// events instead of drawing pooled carriers per packet. txEv is the
	// single in-flight serialization completion (a port serializes one
	// frame at a time); rxEv drains inFl, the FIFO ring of frames
	// propagating on the wire — per-port deliveries share one fixed Delay,
	// so they complete in exactly the order they were pushed.
	txEv    txEvent
	rxEv    rxEvent
	inFl    []*Packet
	inFlHd  int
	inFlLen int
	// Serialization-time cache: back-to-back frames of one wire size (the
	// common case on a saturated port) reuse the previous 128-bit TxTime
	// computation. Invalidated by SetRate.
	cachedWire int
	cachedTxT  sim.Time
	// Link failure state machine (fault injection): while down, arriving
	// packets are dropped at the wire. cutTx marks a frame that was mid-
	// serialization when the link went down — it is lost even if the link
	// comes back before its serialization completes.
	down  bool
	cutTx bool

	// Statistics.
	Drops      int64
	DropBytes  int64
	TxPackets  int64
	TxFrames   int64 // frame bytes transmitted (excl. wire overhead)
	EnqPackets int64
	// MaxQueue is the high-water mark of the queue in bytes; MaxQueueAt
	// records when it was reached.
	MaxQueue   int
	MaxQueueAt sim.Time
}

// QueueBytes returns the current backlog in frame bytes (excluding the
// frame being serialized).
func (p *Port) QueueBytes() int { return p.qBytes }

// QueueLen returns the number of queued frames.
func (p *Port) QueueLen() int { return p.qLen }

// Busy reports whether the port is currently serializing a frame.
func (p *Port) Busy() bool { return p.busy }

// Down reports whether the link is currently failed.
func (p *Port) Down() bool { return p.down }

// SetDown fails the link: subsequent Enqueues drop at the wire, and a
// frame mid-serialization is lost. With flush, the queued backlog is
// dropped too (a rebooting line card); without it the queue is preserved
// and drains when the link comes back (a pulled-and-replugged cable).
// Packets already past serialization keep propagating — at data-center
// delays they are off the cable within microseconds of the cut.
func (p *Port) SetDown(flush bool) {
	if p.down {
		return
	}
	p.down = true
	p.cutTx = p.busy
	if p.net.Probe != nil {
		p.net.Probe.LinkState(p, true)
	}
	if flush {
		for p.qLen > 0 {
			pkt := p.popQ()
			p.qBytes -= pkt.FrameBytes()
			p.drop(pkt)
		}
	}
}

// SetUp restores a failed link; a preserved backlog resumes transmission
// immediately.
func (p *Port) SetUp() {
	if !p.down {
		return
	}
	p.down = false
	if p.net.Probe != nil {
		p.net.Probe.LinkState(p, false)
	}
	if !p.busy && p.qLen > 0 {
		p.startTx()
	}
}

// SetRate changes the link rate mid-run (fault injection: an autoneg
// downshift or a degraded optic). It takes effect at the next frame
// serialization; a hook caching the rate is notified via RateObserver.
func (p *Port) SetRate(r Rate) {
	p.Rate = r
	p.cachedWire = 0
	if ro, ok := p.Hook.(RateObserver); ok {
		ro.OnRateChange(p)
	}
}

// Network returns the network the port belongs to.
func (p *Port) Network() *Network { return p.net }

// Sim returns the simulator driving this port — the owner node's shard
// simulator. Hooks and interceptors attached at the port's switch must
// schedule and read time through it.
func (p *Port) Sim() *sim.Simulator { return p.sim }

// rank is the port's delivery rank: deliveries that reach their
// destinations at the same virtual instant execute in port-creation
// order, the same canonical arbitration in the sequential and sharded
// engines (see sim.ScheduleAfterRank). Real switches arbitrate
// simultaneous arrivals deterministically too; this just fixes which
// deterministic order the simulation means.
func (p *Port) rank() int32 { return int32(p.idx) }

// NewPacket returns a zeroed packet from the port's shard pool. Switch-
// side logic that originates packets (e.g. BFC's pause frames) allocates
// through the port so the packet's pool is the shard doing the work.
func (p *Port) NewPacket() *Packet { return p.sh.newPacket() }

// ReleasePacket returns a packet to the port's shard pool. Interceptors
// and hooks that took ownership of a packet and then discard it release
// it here; the packet must not be used afterwards.
func (p *Port) ReleasePacket(pkt *Packet) { p.sh.release(pkt) }

func (p *Port) pushQ(pkt *Packet) {
	if p.qLen == len(p.q) {
		p.growQ()
	}
	p.q[(p.qHead+p.qLen)&(len(p.q)-1)] = pkt
	p.qLen++
}

func (p *Port) popQ() *Packet {
	pkt := p.q[p.qHead]
	p.q[p.qHead] = nil
	p.qHead = (p.qHead + 1) & (len(p.q) - 1)
	p.qLen--
	return pkt
}

func (p *Port) growQ() {
	p.growQ2(2 * len(p.q))
}

// growQ2 grows the FIFO ring to at least n slots (rounded up to a power
// of two, minimum 16).
func (p *Port) growQ2(n int) {
	c := 16
	for c < n {
		c <<= 1
	}
	nq := make([]*Packet, c)
	for i := 0; i < p.qLen; i++ {
		nq[i] = p.q[(p.qHead+i)&(len(p.q)-1)]
	}
	p.q = nq
	p.qHead = 0
}

// drop records a dropped packet and returns it to the pool (ownership ends
// here — nothing downstream will see it again).
func (p *Port) drop(pkt *Packet) {
	p.Drops++
	p.DropBytes += int64(pkt.FrameBytes())
	p.net.trace(TraceDrop, p.sim.Now(), p.Label, pkt)
	if p.net.Probe != nil {
		p.net.Probe.PortDrop(p, pkt)
	}
	p.sh.release(pkt)
}

// Enqueue admits a packet to the port. Wire-level failure injection (link
// down, loss model) runs first: it models the cable, so a lost packet must
// never reach the hook — TFC's arrival counter and DCTCP's ECN marker
// count what the port actually receives, and counting packets the wire
// then discards would skew rho and marked-fraction measurements under
// injected loss. Then the hook; then drop-tail admission; then the packet
// joins the FIFO and transmission starts if the line is idle. Enqueue
// panics on a packet that was already released.
func (p *Port) Enqueue(pkt *Packet) {
	if pkt.released {
		panic("netsim: Port.Enqueue of a released packet")
	}
	p.EnqPackets++
	if p.down {
		p.drop(pkt)
		return
	}
	if p.LossModel != nil {
		if p.LossModel.Lose(p.lossRand()) {
			p.drop(pkt)
			return
		}
	} else if p.LossRate > 0 && p.lossRand().Float64() < p.LossRate {
		p.drop(pkt)
		return
	}
	if p.Hook != nil && !p.Hook.OnEnqueue(pkt, p) {
		p.drop(pkt)
		return
	}
	fb := pkt.FrameBytes()
	if p.BufBytes > 0 && p.qBytes+fb > p.BufBytes {
		p.drop(pkt)
		return
	}
	p.net.trace(TraceEnqueue, p.sim.Now(), p.Label, pkt)
	p.pushQ(pkt)
	p.qBytes += fb
	if p.qBytes > p.MaxQueue {
		p.MaxQueue = p.qBytes
		p.MaxQueueAt = p.sim.Now()
	}
	if p.net.Probe != nil {
		p.net.Probe.PortEnqueue(p, pkt)
	}
	if !p.busy {
		p.startTx()
	}
}

// txEvent is the port-resident serialization-completion event. A port
// serializes one frame at a time, so a single embedded instance replaces
// a pooled carrier per packet.
type txEvent struct {
	p   *Port
	pkt *Packet
}

// RunEvent implements sim.EventTarget.
func (e *txEvent) RunEvent() {
	pkt := e.pkt
	e.pkt = nil
	e.p.finishTx(pkt)
}

// rxEvent is the port-resident delivery event: it hands the oldest
// in-flight frame to the peer. All of a port's deliveries share the fixed
// propagation Delay and are scheduled in serialization order, so the
// (time, rank, seq) dispatch order matches the inFl ring's FIFO order
// exactly (a port's deliveries all carry its own rank).
type rxEvent struct {
	p *Port
}

// RunEvent implements sim.EventTarget.
func (e *rxEvent) RunEvent() {
	p := e.p
	pkt := p.inFl[p.inFlHd]
	p.inFl[p.inFlHd] = nil
	p.inFlHd = (p.inFlHd + 1) & (len(p.inFl) - 1)
	p.inFlLen--
	//tfcvet:allow shardsafe — rxEv only serves non-crossing links (finishTx routes p.cross through Group.Post), so Peer is always on this shard
	p.Peer.Receive(pkt, p)
}

func (p *Port) pushInFlight(pkt *Packet) {
	if p.inFlLen == len(p.inFl) {
		p.growInFl(2 * len(p.inFl))
	}
	p.inFl[(p.inFlHd+p.inFlLen)&(len(p.inFl)-1)] = pkt
	p.inFlLen++
}

func (p *Port) growInFl(n int) {
	c := 16
	for c < n {
		c <<= 1
	}
	n = c
	ni := make([]*Packet, n)
	for i := 0; i < p.inFlLen; i++ {
		ni[i] = p.inFl[(p.inFlHd+i)&(len(p.inFl)-1)]
	}
	p.inFl = ni
	p.inFlHd = 0
}

// txTime returns the serialization time of a wire-size, via the one-entry
// cache (saturated ports serialize runs of equal-size frames).
func (p *Port) txTime(wireBytes int) sim.Time {
	if wireBytes != p.cachedWire {
		p.cachedWire = wireBytes
		p.cachedTxT = p.Rate.TxTime(wireBytes)
	}
	return p.cachedTxT
}

// startTx begins serializing the head-of-line frame. Completion and
// delivery are port-resident events (no closures, no per-packet
// carriers): one fires when the last bit leaves the port, the second
// after the propagation delay.
func (p *Port) startTx() {
	pkt := p.popQ()
	p.qBytes -= pkt.FrameBytes()
	p.busy = true
	if p.net.Probe != nil {
		p.net.Probe.PortDequeue(p, pkt)
	}
	p.txEv.pkt = pkt
	p.sim.ScheduleAfter(p.txTime(pkt.WireBytes()), &p.txEv)
}

// finishTx runs when the frame has fully serialized onto the link.
func (p *Port) finishTx(pkt *Packet) {
	if p.cutTx {
		// The link went down while this frame was on the wire: the frame
		// is lost regardless of whether the link has since come back.
		p.cutTx = false
		p.busy = false
		p.drop(pkt)
		if !p.down && p.qLen > 0 {
			p.startTx()
		}
		return
	}
	p.TxPackets++
	p.TxFrames += int64(pkt.FrameBytes())
	now := p.sim.Now()
	p.net.trace(TraceTx, now, p.Label, pkt)
	if p.net.Probe != nil {
		p.net.Probe.PortTx(p, pkt)
	}
	pkt.Hops++
	if p.cross {
		// Shard-boundary link: hand the delivery to the group mailbox.
		// The conservative window guarantees now+Delay is at or past the
		// next epoch boundary, so the event reaches the peer's shard in
		// time; (deadline, now, rank) ordering reproduces the sequential
		// insertion order, including per-port delivery FIFO.
		sh := p.sh
		var e *crossRxEvent
		if k := len(sh.xFree) - 1; k >= 0 {
			e = sh.xFree[k]
			sh.xFree[k] = nil
			sh.xFree = sh.xFree[:k]
		} else {
			e = &crossRxEvent{}
		}
		e.p, e.pkt = p, pkt
		p.net.group.Post(sh.id, p.peerSh.id, now+p.Delay, now, p.rank(), e)
	} else {
		p.pushInFlight(pkt)
		p.sim.ScheduleAfterRank(p.Delay, &p.rxEv, p.rank())
	}
	if p.qLen > 0 {
		p.startTx()
	} else {
		p.busy = false
	}
}

// Utilization returns transmitted frame bytes divided by link capacity over
// the window [since, now]. It can exceed 1 slightly because wire overhead
// is excluded from TxFrames accounting but included in capacity use.
func (p *Port) Utilization(since, now sim.Time, framesAtSince int64) float64 {
	if now <= since {
		return 0
	}
	return float64(p.TxFrames-framesAtSince) / p.Rate.BytesIn(now-since)
}
