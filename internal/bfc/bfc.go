// Package bfc implements a Backpressure Flow Control baseline: per-hop,
// per-flow pause/resume signaling in the spirit of BFC (Goyal et al.,
// NSDI 2022). Switch ports track each flow's queue occupancy and send
// XOF (pause) control packets to the flow's source when it crosses a
// small threshold, releasing the pause with XON once the backlog drains.
// Senders run a fixed window with no congestion control of their own —
// the network, not the end host, meters admission.
//
// The reproduction is deliberately simplified relative to the real
// design: the substrate's switches have shared FIFO output queues, not
// per-flow queues, so pausing a flow cannot unblock others behind it in
// the same FIFO (no HoL isolation), and XOF targets the flow's source
// directly rather than hopping upstream one switch at a time. What it
// preserves is the control law — per-flow occupancy thresholds, pause
// timeouts against lost signals, and sub-RTT reaction at the congested
// hop — which is what the head-to-head experiments compare against TFC.
package bfc

import (
	"fmt"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/tcp"
	"tfcsim/internal/transport"
)

// Default sender knobs.
const (
	// DefaultWindow is the fixed send window: a little above the testbed
	// topologies' bandwidth-delay product, so a single unpaused flow can
	// fill a link while the per-flow backpressure stays in charge of
	// sharing.
	DefaultWindow = 16 << 10
	// DefaultPauseTimeout bounds how long a sender stays paused without a
	// refreshed XOF: a lost XON costs at most this long, after which the
	// sender probes and is re-paused if the congestion persists.
	DefaultPauseTimeout = 200 * sim.Microsecond
)

// Config parameterizes one BFC connection.
type Config struct {
	Sim   *sim.Simulator
	Local *netsim.Host // sender side
	Peer  *netsim.Host // receiver side
	Flow  netsim.FlowID

	MSS    int   // default transport.DefaultMSS
	Window int64 // fixed send window in bytes, default DefaultWindow

	MinRTO       sim.Time // default 200ms (matching the TCP baseline)
	MaxRTO       sim.Time // default 60s
	PauseTimeout sim.Time // default DefaultPauseTimeout

	// OnDrain fires every time all currently queued bytes become
	// acknowledged; OnComplete fires once on close-and-drained.
	OnDrain    func()
	OnComplete func()

	// Probe receives congestion telemetry, reusing the TCP probe shape:
	// Cwnd reports the (fixed) window, plus RTO / recovery / retransmit
	// events.
	Probe tcp.Probe
}

func (c *Config) fillDefaults() {
	if c.MSS == 0 {
		c.MSS = transport.DefaultMSS
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * sim.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 60 * sim.Second
	}
	if c.PauseTimeout == 0 {
		c.PauseTimeout = DefaultPauseTimeout
	}
}

// Sender states.
const (
	stateClosed = iota
	stateSynSent
	stateEstablished
	stateDone
)

// Sender is the sending half of a BFC connection: a fixed-window,
// ACK-clocked sender that obeys XOF/XON backpressure from switches.
// Loss recovery keeps TCP's machinery (fast retransmit on three dupacks,
// go-back-N RTO) because backpressure prevents congestion drops but not
// wire loss or link failures.
type Sender struct {
	cfg Config
	st  transport.Stats
	est *transport.RTTEstimator

	state   int
	sndUna  int64
	sndNxt  int64
	budget  int64 // total bytes handed to Send
	closing bool
	finSent bool

	dupacks int
	inFR    bool
	recover int64

	rto        *transport.RTOTimer
	rtoBackoff uint

	// Pause state: while paused the sender transmits nothing. pauseUntil
	// is the XOF expiry; an XON clears it early, a refreshed XOF extends
	// it, and the lazily re-armed pauseTimer resumes transmission when it
	// expires without either.
	paused     bool
	pauseUntil sim.Time
	pauseTimer sim.Timer

	// Pauses counts XOF signals received (sender-side stat).
	Pauses int64
}

// NewSender creates (and registers at the local host) the sending side.
func NewSender(cfg Config) *Sender {
	cfg.fillDefaults()
	s := &Sender{
		cfg: cfg,
		est: transport.NewRTTEstimator(cfg.MinRTO, cfg.MaxRTO, 0),
	}
	s.rto = transport.NewRTOTimer(cfg.Sim, s.onRTO)
	cfg.Local.Register(cfg.Flow, s)
	return s
}

// Dial creates a sender and its matching receiver (the plain cumulative-
// ACK TCP receiver — BFC needs nothing receiver-side), registering both.
func Dial(cfg Config) (*Sender, *tcp.Receiver) {
	s := NewSender(cfg)
	r := tcp.NewReceiver(cfg.Peer.Sim(), cfg.Peer, cfg.Local, cfg.Flow)
	return s, r
}

// Stats exposes the sender's statistics record.
func (s *Sender) Stats() *transport.Stats { return &s.st }

// Acked returns cumulative acknowledged bytes.
func (s *Sender) Acked() int64 { return s.sndUna }

// Queued returns cumulative bytes handed to Send.
func (s *Sender) Queued() int64 { return s.budget }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() sim.Time { return s.est.SRTT() }

// Paused reports whether the sender is currently backpressured.
func (s *Sender) Paused() bool { return s.paused }

// Open sends the SYN.
func (s *Sender) Open() {
	if s.state != stateClosed {
		return
	}
	s.state = stateSynSent
	s.st.Start = s.cfg.Sim.Now()
	s.sendSYN()
}

// Send queues n more bytes on the stream.
func (s *Sender) Send(n int64) {
	if n <= 0 || s.closing {
		return
	}
	s.budget += n
	if s.state == stateEstablished {
		s.trySend()
	}
}

// Close marks the stream finished; a FIN goes out once drained.
func (s *Sender) Close() {
	s.closing = true
	if s.state == stateEstablished && s.sndUna == s.budget {
		s.finish()
	}
}

func (s *Sender) flight() int64 { return s.sndNxt - s.sndUna }

func (s *Sender) sendSYN() {
	p := s.cfg.Local.NewPacket()
	*p = netsim.Packet{
		Flow: s.cfg.Flow, Src: s.cfg.Local.ID(), Dst: s.cfg.Peer.ID(),
		Flags: netsim.FlagSYN, SentAt: s.cfg.Sim.Now(), Window: netsim.WindowUnset,
	}
	s.cfg.Local.Send(p)
	s.armRTO()
}

func (s *Sender) mkData(seq int64, n int) *netsim.Packet {
	p := s.cfg.Local.NewPacket()
	*p = netsim.Packet{
		Flow: s.cfg.Flow, Src: s.cfg.Local.ID(), Dst: s.cfg.Peer.ID(),
		Seq: seq, Payload: n, SentAt: s.cfg.Sim.Now(), Window: netsim.WindowUnset,
	}
	return p
}

func (s *Sender) trySend() {
	if s.state != stateEstablished || s.paused {
		return
	}
	for s.sndNxt < s.budget {
		seg := int64(s.cfg.MSS)
		if rem := s.budget - s.sndNxt; rem < seg {
			seg = rem
		}
		if s.flight() > 0 && s.flight()+seg > s.cfg.Window {
			break
		}
		if s.st.FirstSend == 0 && s.st.BytesAcked == 0 {
			s.st.FirstSend = s.cfg.Sim.Now()
		}
		s.cfg.Local.Send(s.mkData(s.sndNxt, int(seg)))
		s.sndNxt += seg
	}
	if s.flight() > 0 && !s.rto.Armed() {
		s.armRTO()
	}
}

// retransmit resends one segment starting at seq without advancing sndNxt.
func (s *Sender) retransmit(seq int64) {
	seg := int64(s.cfg.MSS)
	if rem := s.budget - seq; rem < seg {
		seg = rem
	}
	if seg <= 0 {
		return
	}
	s.st.RtxBytes += seg
	if s.cfg.Probe != nil {
		s.cfg.Probe.Retransmit(s.cfg.Sim.Now(), s.cfg.Flow, seg)
	}
	s.cfg.Local.Send(s.mkData(seq, int(seg)))
}

func (s *Sender) armRTO() {
	// Clamp before shifting, exactly as the TCP sender does: a long
	// blackout's backoff must saturate at MaxRTO, not overflow.
	d := s.est.RTO()
	if d > s.cfg.MaxRTO>>s.rtoBackoff {
		d = s.cfg.MaxRTO
	} else {
		d <<= s.rtoBackoff
	}
	s.rto.Arm(d)
}

func (s *Sender) onRTO() {
	if s.state == stateDone {
		return
	}
	s.st.Timeouts++
	s.rtoBackoff++
	if s.cfg.Probe != nil {
		s.cfg.Probe.RTOFired(s.cfg.Sim.Now(), s.cfg.Flow, s.rtoBackoff)
	}
	if s.state == stateSynSent {
		s.sendSYN()
		return
	}
	if s.flight() <= 0 {
		return
	}
	// A pause riding into an RTO is stale information — the XOF refresh
	// chain is clearly broken (blackout, flushed queue) — so the timeout
	// overrides it. Without this a lost XON plus a lost retransmission
	// window could deadlock the flow.
	s.paused = false
	if s.inFR && s.cfg.Probe != nil {
		s.cfg.Probe.Recovery(s.cfg.Sim.Now(), s.cfg.Flow, false)
	}
	s.sndNxt = s.sndUna // go-back-N
	s.dupacks = 0
	s.inFR = false
	s.st.RtxBytes += minI64(int64(s.cfg.MSS), s.budget-s.sndUna)
	if s.cfg.Probe != nil {
		s.cfg.Probe.Retransmit(s.cfg.Sim.Now(), s.cfg.Flow, minI64(int64(s.cfg.MSS), s.budget-s.sndUna))
	}
	s.trySend()
	s.armRTO()
}

func (s *Sender) onXOF() {
	s.Pauses++
	s.paused = true
	s.pauseUntil = s.cfg.Sim.Now() + s.cfg.PauseTimeout
	if !s.pauseTimer.Active() {
		s.pauseTimer = s.cfg.Sim.Schedule(s.pauseUntil, s)
	}
	// An already-pending timer fires at or before the new deadline and
	// re-arms itself from RunEvent — the RTOTimer lazy pattern.
}

func (s *Sender) onXON() {
	if !s.paused {
		return
	}
	s.paused = false
	s.trySend()
}

// RunEvent implements sim.EventTarget: the pause timer expired. The
// sender is its own event target, so arming the timer allocates nothing.
func (s *Sender) RunEvent() {
	if !s.paused {
		return
	}
	if now := s.cfg.Sim.Now(); now < s.pauseUntil {
		s.pauseTimer = s.cfg.Sim.Schedule(s.pauseUntil, s)
		return
	}
	// Timeout without XON or refresh: probe onward. If the congestion is
	// still there, the first arriving packet triggers a fresh XOF.
	s.paused = false
	s.trySend()
}

// Deliver handles an incoming packet (XOF/XON, SYNACK, or ACK).
func (s *Sender) Deliver(pkt *netsim.Packet) {
	if s.state == stateDone {
		return
	}
	if pkt.Flags&netsim.FlagXOF != 0 {
		s.onXOF()
		return
	}
	if pkt.Flags&netsim.FlagXON != 0 {
		s.onXON()
		return
	}
	if pkt.Flags&netsim.FlagSYN != 0 && pkt.Flags&netsim.FlagACK != 0 {
		if s.state == stateSynSent {
			s.state = stateEstablished
			s.rtoBackoff = 0
			s.est.Observe(s.cfg.Sim.Now() - pkt.SentAt)
			s.rto.Stop()
			if s.cfg.Probe != nil {
				s.cfg.Probe.Cwnd(s.cfg.Sim.Now(), s.cfg.Flow, s.cfg.Window, s.cfg.Window)
			}
			s.trySend()
			if s.budget == 0 && s.closing {
				s.finish()
			}
		}
		return
	}
	if pkt.Flags&netsim.FlagACK == 0 {
		return
	}
	ack := pkt.Ack
	switch {
	case ack > s.sndUna:
		newly := ack - s.sndUna
		s.st.BytesAcked += newly
		s.est.Observe(s.cfg.Sim.Now() - pkt.SentAt)
		s.sndUna = ack
		if s.sndNxt < s.sndUna {
			s.sndNxt = s.sndUna
		}
		s.rtoBackoff = 0
		if s.inFR {
			if ack >= s.recover {
				s.inFR = false
				s.dupacks = 0
				if s.cfg.Probe != nil {
					s.cfg.Probe.Recovery(s.cfg.Sim.Now(), s.cfg.Flow, false)
				}
			} else {
				// Partial ACK: retransmit the next hole, stay in recovery.
				s.retransmit(s.sndUna)
			}
		} else {
			s.dupacks = 0
		}
		if s.flight() > 0 {
			s.armRTO()
		} else {
			s.rto.Stop()
		}
		s.trySend()
		if s.sndUna == s.budget {
			if s.cfg.OnDrain != nil {
				s.cfg.OnDrain()
			}
			if s.closing {
				s.finish()
			}
		}
	case ack == s.sndUna && s.flight() > 0:
		s.dupacks++
		if !s.inFR && s.dupacks == 3 {
			s.st.FastRtx++
			s.recover = s.sndNxt
			s.inFR = true
			if s.cfg.Probe != nil {
				s.cfg.Probe.Recovery(s.cfg.Sim.Now(), s.cfg.Flow, true)
			}
			s.retransmit(s.sndUna)
			s.armRTO()
		}
	}
}

func (s *Sender) finish() {
	if s.state == stateDone {
		return
	}
	s.state = stateDone
	if !s.finSent {
		s.finSent = true
		p := s.cfg.Local.NewPacket()
		*p = netsim.Packet{
			Flow: s.cfg.Flow, Src: s.cfg.Local.ID(), Dst: s.cfg.Peer.ID(),
			Flags: netsim.FlagFIN, Seq: s.sndNxt, SentAt: s.cfg.Sim.Now(),
			Window: netsim.WindowUnset,
		}
		s.cfg.Local.Send(p)
	}
	s.rto.Stop()
	s.st.Done = true
	s.st.Completed = s.cfg.Sim.Now()
	if s.cfg.OnComplete != nil {
		s.cfg.OnComplete()
	}
}

func (s *Sender) String() string {
	return fmt.Sprintf("bfc.Sender{flow=%d una=%d nxt=%d paused=%v}",
		s.cfg.Flow, s.sndUna, s.sndNxt, s.paused)
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
