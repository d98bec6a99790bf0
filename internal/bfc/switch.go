package bfc

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Default switch-side knobs. The pause threshold is a handful of frames —
// BFC reacts to per-flow queue build-up, not to deep standing queues —
// and the resume threshold at half of it gives the sender time to restart
// before the flow's backlog fully drains.
const (
	DefaultPauseBytes  = 8 << 10
	DefaultResumeBytes = 4 << 10
	DefaultRefreshGap  = 50 * sim.Microsecond
	// defaultPortPause is the aggregate-occupancy pressure threshold for
	// ports with unlimited buffers.
	defaultPortPause = 128 << 10
)

// SwitchKnobs configures the per-port backpressure hooks (the registry's
// Knobs payload for the "bfc" transport). Zero values select defaults.
type SwitchKnobs struct {
	PauseBytes  int64
	ResumeBytes int64
	RefreshGap  sim.Time
}

func (k *SwitchKnobs) fillDefaults() {
	if k.PauseBytes == 0 {
		k.PauseBytes = DefaultPauseBytes
	}
	if k.ResumeBytes == 0 {
		k.ResumeBytes = DefaultResumeBytes
	}
	if k.RefreshGap == 0 {
		k.RefreshGap = DefaultRefreshGap
	}
}

// PauseProbe observes pause/resume signals for the telemetry layer:
// invoked with paused=true for every XOF emitted and paused=false for
// every XON. Passed through the registry as the opaque attach probe.
type PauseProbe func(port *netsim.Port, flow netsim.FlowID, paused bool)

type flowState struct {
	gate FlowGate
	src  netsim.NodeID // flow source, the XOF/XON destination
}

// Hook implements per-flow backpressure at one switch output port. It
// tracks each flow's occupancy by counting admitted arrivals and
// predicting their departures (a FIFO at the port's current rate), and
// originates XOF/XON control packets toward flow sources through the
// switch's normal forwarding path.
//
// The substrate's ports are shared FIFOs, not the per-flow queues of the
// real BFC design, so occupancy here is bookkeeping alongside the queue
// rather than dedicated queue depth; predicted drains self-correct after
// queue flushes and rate changes because the gate clamps at zero.
type Hook struct {
	sim   *sim.Simulator
	sw    *netsim.Switch
	port  *netsim.Port
	knobs SwitchKnobs
	probe PauseProbe

	flows     map[netsim.FlowID]*flowState
	total     int64       // tracked occupancy across all flows (bytes)
	portPause int64       // aggregate pressure threshold
	drainFree sim.Time    // predicted time the last counted byte leaves
	evFree    *drainEvent // free list of drain carriers

	// Pauses and Resumes count emitted XOF and XON signals.
	Pauses  int64
	Resumes int64
}

// AttachSwitch installs BFC backpressure hooks on every port of sw,
// returning them in port order. Knobs may be nil for defaults.
func AttachSwitch(s *sim.Simulator, sw *netsim.Switch, knobs *SwitchKnobs) []*Hook {
	k := SwitchKnobs{}
	if knobs != nil {
		k = *knobs
	}
	k.fillDefaults()
	var hooks []*Hook
	for _, p := range sw.Ports() {
		pp := int64(defaultPortPause)
		if p.BufBytes > 0 {
			pp = int64(p.BufBytes) / 2
		}
		h := &Hook{
			sim: s, sw: sw, port: p, knobs: k,
			flows:     make(map[netsim.FlowID]*flowState),
			portPause: pp,
		}
		p.Hook = h
		hooks = append(hooks, h)
	}
	return hooks
}

// SetProbe wires a pause/resume observer into the hook.
func (h *Hook) SetProbe(p PauseProbe) { h.probe = p }

// Port returns the port this hook is attached to.
func (h *Hook) Port() *netsim.Port { return h.port }

// FlowOcc returns the tracked occupancy of one flow (0 if untracked).
func (h *Hook) FlowOcc(flow netsim.FlowID) int64 {
	if fs := h.flows[flow]; fs != nil {
		return fs.gate.Occ()
	}
	return 0
}

// OnEnqueue implements netsim.PortHook: count the arrival, signal XOF on
// threshold crossing, and schedule the predicted departure. It never
// drops — admission stays with the port's drop-tail check.
func (h *Hook) OnEnqueue(pkt *netsim.Packet, port *netsim.Port) bool {
	if pkt.Payload == 0 {
		return true // ACKs and XOF/XON control traffic are never gated
	}
	fb := pkt.FrameBytes()
	if port.BufBytes > 0 && port.QueueBytes()+fb > port.BufBytes {
		// Drop-tail will reject this packet right after the hook returns;
		// counting it would leak occupancy that never drains.
		return true
	}
	now := h.sim.Now()
	fs := h.flows[pkt.Flow]
	if fs == nil {
		fs = &flowState{gate: FlowGate{
			Pause: h.knobs.PauseBytes, Resume: h.knobs.ResumeBytes,
			RefreshGap: h.knobs.RefreshGap,
		}}
		h.flows[pkt.Flow] = fs
	}
	fs.src = pkt.Src
	h.total += int64(fb)
	if fs.gate.Add(int64(fb), now, h.total >= h.portPause) {
		h.Pauses++
		h.signal(pkt.Flow, fs.src, netsim.FlagXOF)
	}
	// Predict the departure of this frame: the counted backlog serializes
	// FIFO at the port's current rate. The prediction ignores link-down
	// intervals and mid-run rate changes; the error only shifts when the
	// drain event fires, and occupancy clamps at zero either way.
	if h.drainFree < now {
		h.drainFree = now
	}
	h.drainFree += port.Rate.TxTime(pkt.WireBytes())
	e := h.evFree
	if e == nil {
		e = &drainEvent{h: h}
	} else {
		h.evFree, e.next = e.next, nil
	}
	e.flow, e.fb = pkt.Flow, int64(fb)
	//tfcvet:allow rankreq — a switch-local timer, not a link delivery: the XON it may originate enters this switch's own Receive, so it keeps the neutral rank every other switch timer has
	h.sim.Schedule(h.drainFree, e)
	return true
}

// drainEvent is the predicted departure of one counted frame. Carriers
// are free-listed per hook, so the drain timer allocates only while the
// number of pending departures grows.
type drainEvent struct {
	h    *Hook
	flow netsim.FlowID
	fb   int64
	next *drainEvent // free-list link
}

// RunEvent implements sim.EventTarget.
func (e *drainEvent) RunEvent() {
	h, flow, fb := e.h, e.flow, e.fb
	h.evFree, e.next = e, h.evFree
	h.drain(flow, fb)
}

func (h *Hook) drain(flow netsim.FlowID, fb int64) {
	h.total -= fb
	if h.total < 0 {
		h.total = 0
	}
	fs := h.flows[flow]
	if fs == nil {
		return
	}
	if fs.gate.Drain(fb) {
		h.Resumes++
		h.signal(flow, fs.src, netsim.FlagXON)
	}
	if fs.gate.Occ() == 0 && !fs.gate.Paused() {
		delete(h.flows, flow) // bound state under flow churn
	}
}

// signal originates an XOF or XON control packet at the switch, routed
// toward the flow's source like any other packet (so it shares fate with
// the reverse path: losable, delayable — the sender's pause timeout and
// the gate's refresh XOFs cover both).
func (h *Hook) signal(flow netsim.FlowID, dst netsim.NodeID, flag netsim.Flag) {
	if h.probe != nil {
		h.probe(h.port, flow, flag == netsim.FlagXOF)
	}
	p := h.port.NewPacket()
	*p = netsim.Packet{
		Flow: flow, Src: h.sw.ID(), Dst: dst,
		Flags:  flag | netsim.FlagACK,
		SentAt: h.sim.Now(), Window: netsim.WindowUnset,
	}
	h.sw.Receive(p, nil)
}
