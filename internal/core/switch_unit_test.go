package core

// Unit tests for switch-internal mechanisms that the scenario tests only
// exercise indirectly.

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// mkPort builds a standalone TFC port state on a 1 Gbps port.
func mkPort(s *sim.Simulator, cfg SwitchConfig) (*PortState, *netsim.Port) {
	net := netsim.NewNetwork(s)
	a := net.NewHost("a")
	b := net.NewHost("b")
	net.Connect(a, b, netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond})
	cfg.fillDefaults()
	p := a.NIC()
	st := newPortState(s, p, &cfg)
	return st, p
}

func rmData(flow netsim.FlowID, payload int) *netsim.Packet {
	return &netsim.Packet{
		Flow: flow, Flags: netsim.FlagRM, Payload: payload,
		Window: netsim.WindowUnset,
	}
}

func TestUnitDelimiterAdoptionAndSlotEnd(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{})
	s.At(0, func() { st.OnEnqueue(rmData(1, netsim.MSS), p) })
	s.RunUntil(1)
	if !st.hasDelim || st.delim != 1 {
		t.Fatal("first RM data not adopted as delimiter")
	}
	if st.Slots != 0 {
		t.Fatal("adoption must not count as a slot")
	}
	// Second RM of the same flow one 100us "round" later ends the slot.
	s.At(100*sim.Microsecond, func() { st.OnEnqueue(rmData(1, netsim.MSS), p) })
	s.RunUntil(101 * sim.Microsecond)
	if st.Slots != 1 {
		t.Fatalf("slots = %d, want 1", st.Slots)
	}
	if st.RTTB() != 100*sim.Microsecond {
		t.Fatalf("rttb = %v, want 100us (measured slot)", st.RTTB())
	}
}

func TestUnitSmallFrameSlotsDoNotSetRTTB(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{})
	// Delimited by 64-byte probes: rtt_b must stay at init.
	s.At(0, func() { st.OnEnqueue(rmData(2, 0), p) })
	s.At(30*sim.Microsecond, func() { st.OnEnqueue(rmData(2, 0), p) })
	s.RunUntil(31 * sim.Microsecond)
	if st.Slots != 1 {
		t.Fatalf("slots = %d", st.Slots)
	}
	if st.RTTB() != 160*sim.Microsecond {
		t.Fatalf("rttb = %v, want init 160us (small frames excluded)", st.RTTB())
	}
}

func TestUnitMixedFrameSlotExcluded(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{})
	// Slot starts at a small probe and ends at a full frame: still
	// excluded (both endpoints must be >= MinRTTFrame).
	s.At(0, func() { st.OnEnqueue(rmData(3, 0), p) })
	s.At(20*sim.Microsecond, func() { st.OnEnqueue(rmData(3, netsim.MSS), p) })
	s.RunUntil(21 * sim.Microsecond)
	if st.RTTB() != 160*sim.Microsecond {
		t.Fatalf("rttb = %v, polluted by a probe-started slot", st.RTTB())
	}
	// The next slot (full->full) is eligible. Keep it within the 2*rtt_last
	// delimiter-miss timer (2*20us) so the delimiter survives.
	s.At(55*sim.Microsecond, func() { st.OnEnqueue(rmData(3, netsim.MSS), p) })
	s.RunUntil(56 * sim.Microsecond)
	if st.RTTB() != 35*sim.Microsecond {
		t.Fatalf("rttb = %v, want 35us", st.RTTB())
	}
}

func TestUnitTokenClampFloor(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{TClampFactor: 2})
	// End many idle slots: rho at floor would boost T; the clamp bounds it
	// to TClampFactor x BDP(rttb).
	s.At(0, func() { st.OnEnqueue(rmData(1, netsim.MSS), p) })
	for i := 1; i <= 50; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		s.At(at, func() { st.OnEnqueue(rmData(1, netsim.MSS), p) })
	}
	s.RunUntil(6 * sim.Millisecond)
	maxT := 2 * 125e6 * st.RTTB().Seconds()
	if st.Tokens() > maxT+1 {
		t.Fatalf("T = %.0f beyond clamp %.0f", st.Tokens(), maxT)
	}
	if st.Tokens() < float64(netsim.MSS) {
		t.Fatalf("T = %.0f below one MSS floor", st.Tokens())
	}
}

func TestUnitDelimiterMissBackoff(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{})
	s.At(0, func() { st.OnEnqueue(rmData(1, netsim.MSS), p) })
	s.At(100*sim.Microsecond, func() { st.OnEnqueue(rmData(1, netsim.MSS), p) })
	s.RunUntil(150 * sim.Microsecond)
	if !st.hasDelim {
		t.Fatal("precondition: delimiter present")
	}
	// Silence: the 2*rtt_last timer must eventually drop the delimiter.
	s.RunUntil(400 * sim.Microsecond) // > 100us + 2*100us
	if st.hasDelim {
		t.Fatal("delimiter not dropped after 2*rtt_last of silence")
	}
	// Next RM data (any flow) is adopted.
	s.At(s.Now(), func() { st.OnEnqueue(rmData(9, netsim.MSS), p) })
	s.RunUntil(s.Now() + 1)
	if !st.hasDelim || st.delim != 9 {
		t.Fatal("new delimiter not adopted after miss")
	}
}

func TestUnitFINDropsDelimiter(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{})
	s.At(0, func() { st.OnEnqueue(rmData(1, netsim.MSS), p) })
	s.RunUntil(1)
	fin := &netsim.Packet{Flow: 1, Flags: netsim.FlagFIN, Window: netsim.WindowUnset}
	s.At(10*sim.Microsecond, func() { st.OnEnqueue(fin, p) })
	s.RunUntil(11 * sim.Microsecond)
	if st.hasDelim {
		t.Fatal("FIN of the delimiter flow must drop it")
	}
}

func TestUnitStampNeverBelowOneByte(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{})
	// Massive running count: stamp must clamp at >= 1 byte.
	for i := 0; i < 100000; i++ {
		st.e++
	}
	pkt := rmData(5, netsim.MSS)
	s.At(0, func() { st.OnEnqueue(pkt, p) })
	s.RunUntil(1)
	if pkt.Window < 1 {
		t.Fatalf("stamped window %d < 1", pkt.Window)
	}
}

func TestUnitWeightedStamp(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{})
	// Two packets in the same slot state, weights 1 and 3: stamps 1:3.
	a := rmData(1, netsim.MSS)
	b := rmData(2, netsim.MSS)
	b.Weight = 3
	s.At(0, func() {
		st.OnEnqueue(a, p)
		st.OnEnqueue(b, p)
	})
	s.RunUntil(1)
	// a stamped at W/e(=1); b at (T/e(now 4))*3 — just check b > a.
	if b.Window <= a.Window/2 {
		t.Fatalf("weighted stamp not larger: a=%d b=%d", a.Window, b.Window)
	}
}

func TestUnitHandleRMALargeWindowPasses(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{})
	st.lastRefill = s.Now()
	ack := &netsim.Packet{
		Flow: 1, Flags: netsim.FlagACK | netsim.FlagRMA, Window: 10000,
	}
	if st.handleRMA(ack, p) {
		t.Fatal("large-window RMA must pass immediately")
	}
	if ack.Window != 10000 {
		t.Fatal("large-window RMA must not be modified")
	}
}

func TestUnitHandleRMASubMSSDelayedAndBumped(t *testing.T) {
	s := sim.New(1)
	st, _ := mkPort(s, SwitchConfig{})
	st.lastRefill = s.Now()
	st.counter = 0 // no tokens: must be queued
	// Use a throwaway destination port for release.
	net2 := netsim.NewNetwork(s)
	x := net2.NewHost("x")
	y := net2.NewHost("y")
	net2.Connect(x, y, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 1})
	out := x.NIC()
	// The released ACK returns to the pool on delivery; keep a copy.
	k := &copySink{}
	y.Register(2, k)
	ack := &netsim.Packet{
		Flow: 2, Flags: netsim.FlagACK | netsim.FlagRMA, Window: 200,
		Src: y.ID(), Dst: y.ID(),
	}
	if !st.handleRMA(ack, out) {
		t.Fatal("sub-MSS RMA with empty bucket must be held")
	}
	if st.DelayQueueLen() != 1 {
		t.Fatalf("delay queue = %d", st.DelayQueueLen())
	}
	// After ~one grant interval it must be released, bumped to one MSS.
	s.RunUntil(50 * sim.Microsecond)
	if st.DelayQueueLen() != 0 {
		t.Fatal("held RMA never released")
	}
	if len(k.pkts) != 1 {
		t.Fatalf("released RMA delivered %d times, want 1", len(k.pkts))
	}
	if k.pkts[0].Window != int64(netsim.MSS) {
		t.Fatalf("released RMA window = %d, want MSS", k.pkts[0].Window)
	}
}

// copySink records copies of delivered packets (the packets themselves
// return to the pool when Deliver returns).
type copySink struct{ pkts []netsim.Packet }

func (k *copySink) Deliver(p *netsim.Packet) { k.pkts = append(k.pkts, *p) }
