package netsim

import (
	"fmt"
	"math/rand"

	"tfcsim/internal/sim"
)

// Node is a device attached to the network: a Host or a Switch.
type Node interface {
	ID() NodeID
	Name() string
	// Receive is invoked when a packet fully arrives over the link whose
	// transmit side is from (store-and-forward semantics).
	Receive(pkt *Packet, from *Port)
	// Ports returns the node's transmit ports in creation order.
	Ports() []*Port
	// Sim returns the simulator driving this node: the network's
	// simulator, or the node's shard simulator once partitioned. All of a
	// node's events (and its transports') must be scheduled through it.
	Sim() *sim.Simulator
	addPort(p *Port)
	setShard(sh *netShard)
}

type nodeBase struct {
	id    NodeID
	name  string
	ports []*Port
	net   *Network
	sh    *netShard
}

func (n *nodeBase) ID() NodeID            { return n.id }
func (n *nodeBase) Name() string          { return n.name }
func (n *nodeBase) Ports() []*Port        { return n.ports }
func (n *nodeBase) Sim() *sim.Simulator   { return n.sh.sim }
func (n *nodeBase) addPort(p *Port)       { n.ports = append(n.ports, p) }
func (n *nodeBase) setShard(sh *netShard) { n.sh = sh }

// Interceptor lets a scheme take over forwarding of selected packets at a
// switch. TFC uses this for its ACK delay arbiter (paper §4.6): RMA ACKs
// whose window is below one MSS are held at the switch until the
// token-bucket counter of the corresponding data-direction port covers a
// full segment.
type Interceptor interface {
	// Intercept is called before pkt is queued on out. Returning true means
	// the interceptor took ownership (it will enqueue pkt later itself).
	Intercept(pkt *Packet, out *Port, sw *Switch) bool
}

// Switch is a store-and-forward output-queued switch with static routes.
// Destinations reachable over several equal-cost ports are load-balanced
// with flow-consistent (ECMP-style) hashing, so a flow's path — and with
// it TFC's per-port window assignment — stays stable.
type Switch struct {
	nodeBase
	routes map[NodeID][]*Port
	// One-entry route cache: consecutive packets to one destination (the
	// common case on a loaded path) skip the map lookup. Invalidated by
	// ComputeRoutes.
	cachedDst   NodeID
	cachedPorts []*Port
	// Interceptor, if non-nil, may defer forwarding of selected packets.
	Interceptor Interceptor
	// Unroutable counts packets with no route (diagnostics).
	Unroutable int64
}

// Receive forwards the packet toward its destination.
func (sw *Switch) Receive(pkt *Packet, from *Port) {
	out := sw.routeFor(pkt.Flow, pkt.Dst)
	if out == nil {
		sw.Unroutable++
		sw.sh.release(pkt)
		return
	}
	if sw.Interceptor != nil && sw.Interceptor.Intercept(pkt, out, sw) {
		return
	}
	out.Enqueue(pkt)
}

// routeFor picks the (flow-consistent) output port toward dst.
func (sw *Switch) routeFor(flow FlowID, dst NodeID) *Port {
	ports := sw.cachedPorts
	if dst != sw.cachedDst || ports == nil {
		ports = sw.routes[dst]
		if len(ports) == 0 {
			return nil
		}
		sw.cachedDst, sw.cachedPorts = dst, ports
	}
	if len(ports) == 1 {
		return ports[0]
	}
	return ports[flowHash(flow)%uint64(len(ports))]
}

// flowHash mixes a flow ID into a well-distributed value (SplitMix64
// finalizer).
func flowHash(f FlowID) uint64 {
	x := uint64(f) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PortTo returns the first (lowest-index) transmit port used to reach
// dst, or nil. With ECMP, PathTo gives the flow-specific choice.
func (sw *Switch) PortTo(dst NodeID) *Port {
	ports := sw.routes[dst]
	if len(ports) == 0 {
		return nil
	}
	return ports[0]
}

// PortsTo returns all equal-cost transmit ports toward dst.
func (sw *Switch) PortsTo(dst NodeID) []*Port { return sw.routes[dst] }

// PortFor returns the port a given flow toward dst uses.
func (sw *Switch) PortFor(flow FlowID, dst NodeID) *Port {
	return sw.routeFor(flow, dst)
}

// Endpoint consumes packets addressed to a flow at a host.
type Endpoint interface {
	Deliver(pkt *Packet)
}

// Host is an end system with a single NIC. Transport endpoints register by
// FlowID; unknown SYNs are handed to the Listener to spawn a passive
// endpoint (the accept path).
type Host struct {
	nodeBase
	endpoints map[FlowID]Endpoint
	// One-entry demux cache: back-to-back deliveries to one flow (a burst
	// or a single busy connection) skip the map lookup. Invalidated by
	// Register/Unregister.
	cachedFlow FlowID
	cachedEp   Endpoint
	// Listener creates a receiving endpoint for an incoming SYN of an
	// unknown flow, or returns nil to refuse it.
	Listener func(pkt *Packet) Endpoint
	// Stray counts packets that matched no endpoint.
	Stray int64
	// Aux holds protocol-local per-host state (e.g. the credit transport's
	// per-host pacer registry). Owned by whichever scheme sets it.
	Aux any
	// ProcJitter, when positive, adds a uniform [0, ProcJitter) host
	// processing delay to every transmitted packet, FIFO-preserving.
	// Real end hosts have this jitter, and TFC's rtt_b estimation relies
	// on it: the min-filter at switches needs occasional fast rounds to
	// observe the queueing-free RTT (paper §4.5 discusses exactly this).
	ProcJitter sim.Time
	procFree   sim.Time
	// jrand is the host's private jitter stream (see jitterRand): draws
	// depend only on this host's send sequence, never on how sends from
	// different hosts interleave, so sequential and sharded runs see the
	// same jitter.
	jrand *rand.Rand

	// Pause state (fault injection): while paused the host's delivery
	// path stalls and arrivals are buffered in order, modelling a host
	// hiccup (GC pause, interrupt storm, VM steal time).
	paused bool
	held   []*Packet
}

// NIC returns the host's single transmit port (nil before it is wired).
func (h *Host) NIC() *Port {
	if len(h.ports) == 0 {
		return nil
	}
	return h.ports[0]
}

// NewPacket returns a zeroed packet from the host's shard pool (see
// Network.NewPacket). Transport endpoints attached to this host allocate
// their packets through it.
func (h *Host) NewPacket() *Packet { return h.sh.newPacket() }

// Network returns the network this host is attached to.
func (h *Host) Network() *Network { return h.net }

// Send transmits a packet out of the host NIC, after the host's
// (randomized) processing delay. The jitter models interrupt/wakeup
// latency, so it applies only when the NIC pipeline is idle: a line-rate
// stream is not throttled (packets ride the busy pipeline), while
// window-limited senders pay a fresh random delay per packet — the
// variance TFC's switch-side rtt_b min-filter depends on (paper §4.5).
//
// Send panics on a packet that was already released: its memory belongs
// to the pool, and may already be another packet.
func (h *Host) Send(pkt *Packet) {
	if pkt.released {
		panic("netsim: Host.Send of a released packet")
	}
	s := h.sh.sim
	at := s.Now()
	h.net.trace(TraceHostSend, at, h.name, pkt)
	nic := h.NIC()
	if h.ProcJitter > 0 && h.procFree <= at && !nic.Busy() && nic.QueueLen() == 0 {
		// Capped exponential: mostly-small delays with occasional spikes
		// up to ProcJitter (interrupt-coalescing-like), so the mean RTT
		// inflation stays low while the variance the rtt_b min-filter
		// needs is preserved.
		j := sim.Time(h.jitterRand().ExpFloat64() * float64(h.ProcJitter) / 4)
		if j > h.ProcJitter {
			j = h.ProcJitter
		}
		at += j
	}
	if at < h.procFree {
		at = h.procFree // processing is FIFO: no reordering
	}
	h.procFree = at
	if at == s.Now() {
		nic.Enqueue(pkt)
		return
	}
	s.Schedule(at, h.sh.newHostSend(nic, pkt))
}

// Register binds an endpoint to a flow ID.
func (h *Host) Register(id FlowID, ep Endpoint) {
	h.endpoints[id] = ep
	h.cachedFlow, h.cachedEp = 0, nil
}

// Unregister removes a flow binding.
func (h *Host) Unregister(id FlowID) {
	delete(h.endpoints, id)
	h.cachedFlow, h.cachedEp = 0, nil
}

// Endpoint returns the endpoint bound to id, if any.
func (h *Host) Endpoint(id FlowID) Endpoint { return h.endpoints[id] }

// Paused reports whether the host's delivery path is stalled.
func (h *Host) Paused() bool { return h.paused }

// SetPaused stalls (true) or resumes (false) the host's delivery path.
// Buffered arrivals are delivered in arrival order at resume time, so a
// pause appears to peers as a burst of delayed ACKs — the hiccup the
// fault injector uses to stress RTO and rtt_b estimation.
func (h *Host) SetPaused(paused bool) {
	if h.paused == paused {
		return
	}
	h.paused = paused
	if paused {
		return
	}
	held := h.held
	h.held = nil
	for i, pkt := range held {
		held[i] = nil
		h.deliver(pkt)
	}
}

// Receive demultiplexes to the flow endpoint, invoking the Listener for an
// unknown SYN. A paused host buffers the packet (retaining ownership)
// until resume.
func (h *Host) Receive(pkt *Packet, from *Port) {
	if h.paused {
		//tfcvet:allow poolsafe,hotalloc — the pause buffer takes ownership until resume re-injects, and it only grows while a fault holds the host paused, never in steady state
		h.held = append(h.held, pkt)
		return
	}
	h.deliver(pkt)
}

func (h *Host) deliver(pkt *Packet) {
	ep := h.cachedEp
	if pkt.Flow != h.cachedFlow || ep == nil {
		var ok bool
		ep, ok = h.endpoints[pkt.Flow]
		if !ok {
			if pkt.Flags&FlagSYN != 0 && pkt.Flags&FlagACK == 0 && h.Listener != nil {
				if ep = h.Listener(pkt); ep != nil {
					h.endpoints[pkt.Flow] = ep
				}
			}
			if ep == nil {
				h.Stray++
				h.net.trace(TraceStray, h.sh.sim.Now(), h.name, pkt)
				h.sh.release(pkt)
				return
			}
		}
		h.cachedFlow, h.cachedEp = pkt.Flow, ep
	}
	h.net.trace(TraceDeliver, h.sh.sim.Now(), h.name, pkt)
	if h.net.Probe != nil {
		h.net.Probe.HostDeliver(h, pkt)
	}
	ep.Deliver(pkt)
	// Delivery is the packet's release point: Deliver must consume the
	// packet synchronously (every in-tree endpoint does), so ownership
	// returns to the host's shard pool here.
	h.sh.release(pkt)
}

// TraceEvent classifies a packet lifecycle notification.
type TraceEvent uint8

// Packet lifecycle events, in the order they occur along a path.
const (
	TraceHostSend TraceEvent = iota // transport handed the packet to the host
	TraceEnqueue                    // packet admitted to a port queue
	TraceDrop                       // packet dropped (drop-tail, hook, or loss)
	TraceTx                         // frame fully serialized onto the link
	TraceDeliver                    // delivered to the destination endpoint
	TraceStray                      // arrived at a host with no endpoint
)

// String names the event.
func (e TraceEvent) String() string {
	switch e {
	case TraceHostSend:
		return "SEND"
	case TraceEnqueue:
		return "ENQ"
	case TraceDrop:
		return "DROP"
	case TraceTx:
		return "TX"
	case TraceDeliver:
		return "RECV"
	case TraceStray:
		return "STRAY"
	}
	return "?"
}

// Probe observes forwarding-path events for the telemetry layer
// (internal/telemetry). Implementations must treat the *Packet and *Port
// arguments as read-only snapshots: copy any fields they need and retain
// neither pointer — the pooled packet may be recycled as soon as the
// probe returns. Probes run on the simulation's virtual timeline and must
// not mutate simulation state or draw from its Rand.
type Probe interface {
	// PortEnqueue runs after pkt is admitted to p's queue.
	PortEnqueue(p *Port, pkt *Packet)
	// PortDequeue runs when pkt leaves the queue to start serialization.
	PortDequeue(p *Port, pkt *Packet)
	// PortTx runs when pkt's frame has fully serialized onto p's wire
	// (the start of its propagation leg).
	PortTx(p *Port, pkt *Packet)
	// PortDrop runs for every drop (wire loss, hook veto, drop-tail, cut).
	PortDrop(p *Port, pkt *Packet)
	// HostDeliver runs when pkt reaches its destination endpoint at h,
	// immediately before delivery (the end of the packet's journey).
	HostDeliver(h *Host, pkt *Packet)
	// LinkState runs when p's link fails (down=true) or recovers.
	LinkState(p *Port, down bool)
}

// Network is a collection of nodes plus the shared simulator and routing.
type Network struct {
	// Sim is the control simulator: experiments schedule their workload
	// arrivals, samplers, and fault events through it. For a sequential
	// network it also drives every entity; Partition rebinds entities to
	// per-shard simulators and Sim becomes the sim.Group control.
	Sim    *sim.Simulator
	nodes  []Node
	nextID NodeID
	// Trace, when set, receives every packet lifecycle event (tcpdump-like
	// observability; adds one nil-check per event when unset). The trace
	// callback runs on shard goroutines in a partitioned network — only
	// use it on sequential runs. pkt is valid only during the call.
	Trace func(ev TraceEvent, at sim.Time, where string, pkt *Packet)
	// Probe, when set, receives forwarding-path telemetry events. Like
	// Trace, the disabled path is one nil-check per event. In a
	// partitioned network probe callbacks run concurrently on shard
	// goroutines; the telemetry layer serializes internally.
	Probe Probe

	// shards hold the per-shard execution contexts (simulator + pools);
	// exactly one, driven by Sim, until Partition splits the network.
	shards   []*netShard
	group    *sim.Group
	baseSeed int64
	portSeq  uint64 // port creation counter: stable per-port identity
}

// pktSlab is the packet-pool growth quantum: a pool miss allocates one
// slab and free-lists the remainder, so a growing live population (e.g. a
// deepening queue) costs one allocation per 64 packets instead of one
// each.
const pktSlab = 64

func (n *Network) trace(ev TraceEvent, at sim.Time, where string, pkt *Packet) {
	if n.Trace != nil {
		n.Trace(ev, at, where, pkt)
	}
}

// NewPacket returns a zeroed packet recycled from a free list. Packets
// are pooled: the free list is refilled when a packet's single ownership
// chain ends (delivery, drop, stray, or unroutable), so nothing may hold
// a *Packet past the Deliver/OnEnqueue/Trace call it was passed to — copy
// the fields instead. Transports allocate through Host.NewPacket (or
// Port.NewPacket from switch-side hooks) so the packet comes from — and
// later returns to — the pool of the shard doing the work; this method
// serves shard 0 for sequential callers (tests, benchmarks).
func (n *Network) NewPacket() *Packet { return n.shards[0].newPacket() }

// Warm pre-sizes the network for an allocation-free run: the packet pool
// grows to at least packets spare packets, the deferred host-send event
// pool to a matching depth, and every port's FIFO and in-flight rings to
// ringCap slots. Benchmarks call it (together with sim.Warm) so the
// measured steady state performs no allocation at all; cold networks
// grow on demand instead.
func (n *Network) Warm(packets, ringCap int) {
	for _, sh := range n.shards {
		for len(sh.pktFree) < packets {
			sh.growPool()
		}
		for len(sh.evFree) < 64 {
			sh.evFree = append(sh.evFree, &portEvent{})
		}
	}
	for _, node := range n.nodes {
		for _, p := range node.Ports() {
			if len(p.q) < ringCap {
				p.growQ2(ringCap)
			}
			if len(p.inFl) < ringCap {
				p.growInFl(ringCap)
			}
		}
	}
}

// portEvent is the pooled sim.EventTarget for the one forwarding-path
// event that still needs a per-packet carrier: a host send deferred by
// processing jitter (any number can be pending per NIC). Serialization
// completion and delivery use port-resident events instead — see txEvent
// and rxEvent in port.go.
type portEvent struct {
	port *Port
	pkt  *Packet
}

// RunEvent implements sim.EventTarget. The event frees itself before
// acting so the callback chain can immediately reuse it. It runs — and
// recycles — on the port's shard, where it was allocated.
func (e *portEvent) RunEvent() {
	p, pkt := e.port, e.pkt
	e.port, e.pkt = nil, nil
	//tfcvet:allow hotalloc — free-list push: newHostSend popped with truncation, so this append reuses the retained capacity (amortized pool growth)
	p.sh.evFree = append(p.sh.evFree, e)
	p.Enqueue(pkt)
}

// NewNetwork creates an empty network on the given simulator.
func NewNetwork(s *sim.Simulator) *Network {
	n := &Network{Sim: s, baseSeed: s.Seed()}
	n.shards = []*netShard{{id: 0, sim: s}}
	return n
}

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []Node { return n.nodes }

// NewHost adds a host.
func (n *Network) NewHost(name string) *Host {
	h := &Host{
		nodeBase:  nodeBase{id: n.nextID, name: name, net: n, sh: n.shards[0]},
		endpoints: make(map[FlowID]Endpoint),
	}
	n.nextID++
	n.nodes = append(n.nodes, h)
	return h
}

// NewSwitch adds a switch.
func (n *Network) NewSwitch(name string) *Switch {
	sw := &Switch{
		nodeBase: nodeBase{id: n.nextID, name: name, net: n, sh: n.shards[0]},
		routes:   make(map[NodeID][]*Port),
	}
	n.nextID++
	n.nodes = append(n.nodes, sw)
	return sw
}

// LinkConfig describes a full-duplex cable.
type LinkConfig struct {
	Rate  Rate
	Delay sim.Time
	// BufA is the queue capacity (bytes) of the a→b port at node a; BufB of
	// the b→a port at node b. Zero means unlimited (typical for host NICs,
	// whose senders are window-limited).
	BufA, BufB int
}

// Connect wires a full-duplex link between a and b, returning the two
// directional ports (a→b, b→a).
func (n *Network) Connect(a, b Node, cfg LinkConfig) (ab, ba *Port) {
	ab = &Port{
		sim: n.Sim, net: n, Owner: a, Peer: b, Rate: cfg.Rate, Delay: cfg.Delay,
		BufBytes: cfg.BufA, idx: n.portSeq,
		Label: fmt.Sprintf("%s->%s", a.Name(), b.Name()),
	}
	ba = &Port{
		sim: n.Sim, net: n, Owner: b, Peer: a, Rate: cfg.Rate, Delay: cfg.Delay,
		BufBytes: cfg.BufB, idx: n.portSeq + 1,
		Label: fmt.Sprintf("%s->%s", b.Name(), a.Name()),
	}
	n.portSeq += 2
	ab.sh, ab.peerSh = n.shards[0], n.shards[0]
	ba.sh, ba.peerSh = n.shards[0], n.shards[0]
	ab.txEv.p, ab.rxEv.p = ab, ab
	ba.txEv.p, ba.rxEv.p = ba, ba
	a.addPort(ab)
	b.addPort(ba)
	return ab, ba
}

// ComputeRoutes installs next-hop route sets on every switch: for each
// destination, all ports on a shortest path qualify (equal-cost
// multipath); flows are spread over them with consistent hashing. Hosts
// need no routes — they have a single NIC. Deterministic: port sets keep
// creation order.
func (n *Network) ComputeRoutes() {
	const inf = int(^uint(0) >> 1)
	// All-pairs hop distances via one BFS per node.
	dist := make(map[NodeID][]int, len(n.nodes))
	for _, src := range n.nodes {
		d := make([]int, len(n.nodes))
		for i := range d {
			d[i] = inf
		}
		d[src.ID()] = 0
		frontier := []Node{src}
		for len(frontier) > 0 {
			var next []Node
			for _, u := range frontier {
				for _, p := range u.Ports() {
					v := p.Peer
					if d[v.ID()] == inf {
						d[v.ID()] = d[u.ID()] + 1
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
		dist[src.ID()] = d
	}
	for _, node := range n.nodes {
		sw, ok := node.(*Switch)
		if !ok {
			continue
		}
		sw.routes = make(map[NodeID][]*Port, len(n.nodes))
		sw.cachedDst, sw.cachedPorts = 0, nil
		for _, dst := range n.nodes {
			if dst.ID() == sw.ID() {
				continue
			}
			d := dist[sw.ID()][dst.ID()]
			if d == inf {
				continue
			}
			var ports []*Port
			for _, p := range sw.Ports() {
				if dist[p.Peer.ID()][dst.ID()] == d-1 {
					ports = append(ports, p)
				}
			}
			sw.routes[dst.ID()] = ports
		}
	}
}

// HostByID returns the host with the given node ID, or nil.
func (n *Network) HostByID(id NodeID) *Host {
	if int(id) < len(n.nodes) {
		if h, ok := n.nodes[id].(*Host); ok {
			return h
		}
	}
	return nil
}
