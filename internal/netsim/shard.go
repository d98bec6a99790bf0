package netsim

import (
	"fmt"
	"math/rand"

	"tfcsim/internal/sim"
)

// Sharded execution (conservative parallel DES, see sim.Group and
// DESIGN.md §10). A partitioned network assigns every node — and with it
// every transmit port and pooled resource — to one shard, each driven by
// its own sim.Simulator on its own goroutine. Links whose two ends live
// in different shards become the synchronization surface: their
// propagation delay bounds how far shards may run ahead of each other
// (the lookahead), and their deliveries travel through the group's
// deterministic per-epoch mailboxes instead of the port-resident rxEvent.
//
// Entity-owned randomness is a prerequisite: a shared per-trial
// rand.Rand would be consumed in shard-execution order, which is not the
// sequential order. Hosts draw processing jitter from a per-host stream
// and ports draw wire loss from a per-port stream, both derived from the
// trial seed via sim.SubSeed — identical draws in both modes.

// Salt namespaces for sim.SubSeed entity streams.
const (
	saltHostJitter = 0x48490000 // + NodeID
	saltPortLoss   = 0x504c0000 // + port creation index
)

// netShard is one shard's execution context: its simulator plus the
// pooled resources that must be single-owner under parallel execution.
// Every pool is touched only by its owning shard's goroutine (allocation
// happens where a packet/event is created, release where it is consumed
// — both on the owning shard), so no locks are needed. An unpartitioned
// network has exactly one shard whose simulator is Network.Sim.
type netShard struct {
	id  int
	sim *sim.Simulator

	pktFree []*Packet
	evFree  []*portEvent    // deferred host-send carriers
	xFree   []*crossRxEvent // cross-shard delivery carriers
}

// newPacket pops a zeroed packet from the shard's free list, growing the
// pool by a slab on a miss. Packets contain no pointers, so a slab is
// GC-opaque, and handing out slab elements is safe — the pool never
// frees, it only recycles.
func (sh *netShard) newPacket() *Packet {
	k := len(sh.pktFree) - 1
	if k < 0 {
		sh.growPool()
		k = len(sh.pktFree) - 1
	}
	p := sh.pktFree[k]
	sh.pktFree[k] = nil
	sh.pktFree = sh.pktFree[:k]
	p.released = false
	return p
}

// growPool free-lists one fresh slab of packets.
func (sh *netShard) growPool() {
	slab := make([]Packet, pktSlab)
	for i := range slab {
		sh.pktFree = append(sh.pktFree, &slab[i])
	}
}

// release zeroes p and returns it to the shard's free list, ending its
// single ownership chain. Releasing a packet twice would hand one packet
// to two owners, so it panics instead.
func (sh *netShard) release(p *Packet) {
	if p.released {
		panic("netsim: packet released twice")
	}
	*p = Packet{released: true}
	//tfcvet:allow hotalloc — free-list push: newPacket popped with truncation, so this append reuses the retained capacity (amortized pool growth)
	sh.pktFree = append(sh.pktFree, p)
}

func (sh *netShard) newHostSend(port *Port, pkt *Packet) *portEvent {
	var e *portEvent
	if k := len(sh.evFree) - 1; k >= 0 {
		e = sh.evFree[k]
		sh.evFree[k] = nil
		sh.evFree = sh.evFree[:k]
	} else {
		e = &portEvent{}
	}
	e.port, e.pkt = port, pkt
	return e
}

// crossRxEvent delivers one packet over a shard-crossing link. Unlike
// the port-resident rxEvent (which drains the inFl ring in FIFO order),
// each cross delivery carries its own packet: mailbox insertion already
// orders deliveries by (time, schedule instant, port rank, post order),
// which is the same FIFO order per port — and the same canonical
// arbitration of simultaneous cross-port arrivals the sequential engine
// applies. The carrier is allocated from the sending shard's pool and
// released into the receiving shard's — pools migrate capacity but each
// is only ever touched by its owner.
type crossRxEvent struct {
	p   *Port
	pkt *Packet
}

// RunEvent implements sim.EventTarget; it executes on the receiving
// (peer's) shard.
func (e *crossRxEvent) RunEvent() {
	p, pkt := e.p, e.pkt
	e.p, e.pkt = nil, nil
	sh := p.peerSh
	//tfcvet:allow shardsafe,hotalloc — RunEvent executes on the receiving shard (the mailbox delivered it here), so peerSh IS this shard; the free-list append reuses truncation-retained capacity
	sh.xFree = append(sh.xFree, e)
	//tfcvet:allow shardsafe — same: the mailbox already moved execution to the peer's shard, so this delivery is shard-local
	p.Peer.Receive(pkt, p)
}

// Group returns the sharded dispatcher, or nil for a sequential network.
func (n *Network) Group() *sim.Group { return n.group }

// Shards returns the number of shards (1 for a sequential network).
func (n *Network) Shards() int { return len(n.shards) }

// Partition splits the network into nShards shards driven in parallel by
// a conservative sim.Group, with assign giving each node's shard (indexed
// by NodeID). It must be called on a fully built topology before any
// event has executed: partitioning rebinds every node and port to its
// shard's simulator, so entities created or attached afterwards
// (transports, hooks) pick up the right one. Events already scheduled
// stay on the control simulator — the right home for trial-wide cadences
// (telemetry sampling, experiment probes), which then run at epoch
// barriers; anything that must run on a node's shard has to be scheduled
// after the call, through node.Sim().
//
// Every link that crosses a shard boundary must have a positive
// propagation delay — the minimum such delay becomes the group's
// lookahead window. Subject to the tie caveat documented on sim.Group,
// the partitioned run is byte-identical to the sequential one.
func (n *Network) Partition(assign []int, nShards int) error {
	if n.group != nil {
		return fmt.Errorf("netsim: network is already partitioned")
	}
	if nShards < 2 {
		return fmt.Errorf("netsim: Partition needs at least 2 shards, got %d", nShards)
	}
	if len(assign) != len(n.nodes) {
		return fmt.Errorf("netsim: assign covers %d nodes, network has %d", len(assign), len(n.nodes))
	}
	if n.Sim.Now() != 0 || n.Sim.Executed() != 0 {
		return fmt.Errorf("netsim: Partition must run before any event has executed")
	}
	for i, s := range assign {
		if s < 0 || s >= nShards {
			return fmt.Errorf("netsim: node %d assigned to shard %d, want [0,%d)", i, s, nShards)
		}
	}
	// Lookahead: the minimum propagation delay over shard-crossing links.
	lookahead := sim.Time(0)
	for _, node := range n.nodes {
		for _, p := range node.Ports() {
			if assign[p.Owner.ID()] == assign[p.Peer.ID()] {
				continue
			}
			if p.Delay <= 0 {
				return fmt.Errorf("netsim: link %s crosses shards with zero propagation delay", p.Label)
			}
			if lookahead == 0 || p.Delay < lookahead {
				lookahead = p.Delay
			}
		}
	}
	if lookahead == 0 {
		// No link crosses a boundary: the shards are independent and any
		// positive window is safe.
		lookahead = sim.Second
	}
	g := sim.NewGroup(n.Sim, nShards, lookahead)
	n.group = g
	old0 := n.shards[0]
	shards := make([]*netShard, nShards)
	for i := range shards {
		shards[i] = &netShard{id: i, sim: g.Shard(i)}
	}
	// Carry over anything Warm pre-sized on the bootstrap shard.
	shards[0].pktFree, shards[0].evFree = old0.pktFree, old0.evFree
	n.shards = shards
	for _, node := range n.nodes {
		sh := shards[assign[node.ID()]]
		node.setShard(sh)
		for _, p := range node.Ports() {
			p.sh = sh
			p.sim = sh.sim
			p.peerSh = shards[assign[p.Peer.ID()]]
			p.cross = p.peerSh != sh
		}
	}
	return nil
}

// jitterRand returns the host's private jitter stream, derived from the
// trial seed and the host's stable NodeID so the draw sequence does not
// depend on execution interleaving (sequential vs sharded).
func (h *Host) jitterRand() *rand.Rand {
	if h.jrand == nil {
		h.jrand = rand.New(rand.NewSource(sim.SubSeed(h.net.baseSeed, saltHostJitter+uint64(h.id))))
	}
	return h.jrand
}

// lossRand returns the port's private wire-loss stream (uniform LossRate
// and stateful LossModel draws), keyed by the port's creation index.
func (p *Port) lossRand() *rand.Rand {
	if p.lrand == nil {
		p.lrand = rand.New(rand.NewSource(sim.SubSeed(p.net.baseSeed, saltPortLoss+p.idx)))
	}
	return p.lrand
}
