package netsim

// Tests for the wire-level fault machinery: link down/up, loss injection
// ordering relative to port hooks, mid-run rate changes, and host pause.

import (
	"math/rand"
	"testing"

	"tfcsim/internal/sim"
)

// countHook counts OnEnqueue invocations (standing in for TFC's arrival
// counter / DCTCP's ECN marker).
type countHook struct {
	seen      int
	rateCalls int
}

func (c *countHook) OnEnqueue(pkt *Packet, port *Port) bool { c.seen++; return true }
func (c *countHook) OnRateChange(port *Port)                { c.rateCalls++ }

// alwaysLose is a LossModel that drops everything.
type alwaysLose struct{ calls int }

func (a *alwaysLose) Lose(r *rand.Rand) bool { a.calls++; return true }

func mkPkt(h1, h2 *Host, seq int64) *Packet {
	return &Packet{Flow: 7, Src: h1.ID(), Dst: h2.ID(), Seq: seq, Payload: MSS}
}

func TestLossAppliedBeforeHook(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	hook := &countHook{}
	out.Hook = hook
	out.LossRate = 1.0 // every packet is lost on the wire
	k := &sink{s: s}
	h2.Register(7, k)
	for i := 0; i < 5; i++ {
		pkt := mkPkt(h1, h2, int64(i)*MSS)
		s.At(sim.Time(i)*100*sim.Microsecond, func() { h1.Send(pkt) })
	}
	s.Run()
	if len(k.pkts) != 0 {
		t.Fatalf("delivered %d packets through LossRate=1", len(k.pkts))
	}
	if out.Drops != 5 {
		t.Fatalf("drops = %d, want 5", out.Drops)
	}
	// The wire loses the packet before the port sees it: the hook (which
	// models arrival accounting at the port) must observe nothing.
	if hook.seen != 0 {
		t.Fatalf("hook observed %d packets that the wire lost", hook.seen)
	}
}

func TestLossModelSupersedesLossRate(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	m := &alwaysLose{}
	out.LossModel = m
	out.LossRate = 0 // the model decides, not the uniform rate
	k := &sink{s: s}
	h2.Register(7, k)
	pkt := mkPkt(h1, h2, 0)
	s.At(0, func() { h1.Send(pkt) })
	s.Run()
	if m.calls != 1 || len(k.pkts) != 0 {
		t.Fatalf("model calls = %d, delivered = %d; want 1, 0", m.calls, len(k.pkts))
	}
}

func TestPortDownDropsAndPreservesQueue(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	k := &sink{s: s}
	h2.Register(7, k)
	// Three frames at the output port: f0 starts serializing (12.3us at
	// 1G), f1 and f2 queue behind it. The cut at 5us loses f0 mid-frame;
	// f1 and f2 are preserved and drain after SetUp.
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			out.Enqueue(mkPkt(h1, h2, int64(i)*MSS))
		}
	})
	downAt := 5 * sim.Microsecond
	s.At(downAt, func() { out.SetDown(false) })
	s.At(downAt, func() {
		if !out.Down() {
			t.Error("port not down after SetDown")
		}
	})
	lost := mkPkt(h1, h2, 100*MSS)
	s.At(downAt+5*sim.Microsecond, func() { out.Enqueue(lost) })
	s.At(sim.Millisecond, out.SetUp)
	s.Run()
	// Dropped: f0 (cut mid-serialization) and the outage-time enqueue.
	if out.Drops != 2 {
		t.Fatalf("drops = %d, want 2", out.Drops)
	}
	var got []int64
	for _, p := range k.pkts {
		got = append(got, p.Seq)
	}
	if len(got) != 2 || got[0] != MSS || got[1] != 2*MSS {
		t.Fatalf("delivered seqs %v, want [MSS 2*MSS] after SetUp", got)
	}
	if k.at[0] <= sim.Millisecond {
		t.Fatalf("preserved frame delivered at %v, before link restore", k.at[0])
	}
}

func TestPortDownFlushEmptiesQueue(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	k := &sink{s: s}
	h2.Register(7, k)
	s.At(0, func() {
		for i := 0; i < 4; i++ {
			out.Enqueue(mkPkt(h1, h2, int64(i)*MSS))
		}
	})
	// f0 finishes serializing at 12.3us and is on the wire; the flush at
	// 13us cuts f1 mid-frame and discards f2, f3 from the queue.
	s.At(13*sim.Microsecond, func() { out.SetDown(true) })
	s.At(sim.Millisecond, out.SetUp)
	s.Run()
	if out.QueueLen() != 0 {
		t.Fatalf("queue len = %d after flush", out.QueueLen())
	}
	if len(k.pkts) != 1 || k.pkts[0].Seq != 0 {
		t.Fatalf("delivered %d packets, want only the pre-outage frame", len(k.pkts))
	}
	if out.Drops != 3 {
		t.Fatalf("drops = %d, want 3 (1 cut + 2 flushed)", out.Drops)
	}
}

func TestPortDownCutsInFlightFrame(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	k := &sink{s: s}
	h2.Register(7, k)
	s.At(0, func() { out.Enqueue(mkPkt(h1, h2, 0)) })
	// Cut the link mid-frame and restore it before serialization would
	// have finished: the frame is lost anyway.
	s.At(5*sim.Microsecond, func() { out.SetDown(false) })
	s.At(6*sim.Microsecond, out.SetUp)
	s.Run()
	if len(k.pkts) != 0 {
		t.Fatal("frame mid-serialization at cut time was delivered")
	}
	if out.Drops != 1 {
		t.Fatalf("drops = %d, want 1", out.Drops)
	}
}

func TestSetRateNotifiesHook(t *testing.T) {
	s := sim.New(1)
	_, _, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	hook := &countHook{}
	out.Hook = hook
	out.SetRate(100 * Mbps)
	if out.Rate != 100*Mbps {
		t.Fatalf("rate = %v, want 100Mbps", out.Rate)
	}
	if hook.rateCalls != 1 {
		t.Fatalf("rate observer called %d times, want 1", hook.rateCalls)
	}
}

func TestHostPauseBuffersInOrder(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, _ := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	k := &sink{s: s}
	h2.Register(7, k)
	s.At(0, func() { h2.SetPaused(true) })
	for i := 0; i < 3; i++ {
		pkt := mkPkt(h1, h2, int64(i)*MSS)
		s.At(sim.Time(i+1)*50*sim.Microsecond, func() { h1.Send(pkt) })
	}
	resumeAt := sim.Millisecond
	s.At(resumeAt, func() { h2.SetPaused(false) })
	s.Run()
	if len(k.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3 after resume", len(k.pkts))
	}
	for i, p := range k.pkts {
		if p.Seq != int64(i)*MSS {
			t.Fatalf("delivery order broken: pkt %d has seq %d", i, p.Seq)
		}
		if k.at[i] != resumeAt {
			t.Fatalf("pkt %d delivered at %v, want resume time %v", i, k.at[i], resumeAt)
		}
	}
}

func TestHostPauseWithPooling(t *testing.T) {
	// Held packets retain ownership across the pause: the packets must
	// not be recycled while buffered.
	s := sim.New(1)
	_, h1, h2, _ := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	k := &sink{s: s}
	h2.Register(7, k)
	s.At(0, func() { h2.SetPaused(true) })
	for i := 0; i < 4; i++ {
		seq := int64(i) * MSS
		s.At(sim.Time(i+1)*30*sim.Microsecond, func() {
			p := h1.NewPacket()
			*p = Packet{Flow: 7, Src: h1.ID(), Dst: h2.ID(), Seq: seq, Payload: MSS}
			h1.Send(p)
		})
	}
	s.At(sim.Millisecond, func() { h2.SetPaused(false) })
	s.Run()
	if len(k.pkts) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(k.pkts))
	}
	for i, at := range k.at {
		if at != sim.Millisecond {
			t.Fatalf("pkt %d delivered at %v during pause", i, at)
		}
	}
}
