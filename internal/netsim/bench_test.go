package netsim

import (
	"runtime"
	"testing"

	"tfcsim/internal/sim"
)

// sink consumes delivered packets (Host.Receive releases them afterwards).
type benchSink struct{ got int64 }

func (k *benchSink) Deliver(pkt *Packet) { k.got += int64(pkt.Payload) }

// reportPerHop converts a malloc delta into the allocs/pkt-hop metric the
// perf trajectory tracks (ISSUE 2 acceptance: ≥5× below the ~4.7 of the
// pre-pooling engine).
func reportPerHop(b *testing.B, mallocs uint64, net *Network) {
	var hops int64
	for _, n := range net.Nodes() {
		for _, p := range n.Ports() {
			hops += p.TxPackets
		}
	}
	if hops > 0 {
		b.ReportMetric(float64(mallocs)/float64(hops), "allocs/pkt-hop")
	}
}

// BenchmarkSaturatedPort drives a single always-backlogged 10G port: the
// purest measure of the per-packet forwarding cost (enqueue, ring-buffer
// FIFO, two pooled events, delivery, release).
func BenchmarkSaturatedPort(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	net.Connect(h1, h2, LinkConfig{Rate: 10 * Gbps, Delay: sim.Microsecond})
	net.ComputeRoutes()
	k := &benchSink{}
	h2.Register(1, k)
	// Refill the queue as it drains so the port never idles, without ever
	// queueing more than a small batch (bounded memory at any b.N).
	const batch = 64
	left := b.N
	feed := func() {
		for i := 0; i < batch && left > 0; i, left = i+1, left-1 {
			p := net.NewPacket()
			p.Flow, p.Src, p.Dst, p.Payload = 1, h1.ID(), h2.ID(), MSS
			h1.Send(p)
		}
	}
	var refill func()
	refill = func() {
		feed()
		if left > 0 {
			s.After(batch*h1.NIC().Rate.TxTime(MSS+HeaderBytes+WireOverheadBytes), refill)
		}
	}
	// Pre-size pools and rings so the measured run is allocation-free.
	s.Warm(1024, 1024)
	net.Warm(1024, 1024)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	s.At(0, refill)
	s.Run()
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if k.got != int64(b.N)*MSS {
		b.Fatalf("delivered %d bytes, want %d", k.got, int64(b.N)*MSS)
	}
	reportPerHop(b, ms1.Mallocs-ms0.Mallocs, net)
}

// burster fires one sender's synchronized window. Pre-built once per
// sender and scheduled as an EventTarget, so burst arrival costs no
// closure allocations (the residual 64 allocs/op of the closure-based
// version).
type burster struct {
	net *Network
	h   *Host
	dst NodeID
}

// RunEvent implements sim.EventTarget.
func (bu *burster) RunEvent() {
	for j := 0; j < 8; j++ {
		p := bu.net.NewPacket()
		p.Flow, p.Src, p.Dst, p.Payload = 1, bu.h.ID(), bu.dst, MSS
		bu.h.Send(p)
	}
}

// BenchmarkIncastBurst replays the paper's stress shape at the raw packet
// level: many senders burst simultaneously into one switch port with a
// finite buffer, the case where a slice-shift FIFO used to degenerate to
// O(n²) per dequeue.
func BenchmarkIncastBurst(b *testing.B) {
	const senders = 64
	b.ReportAllocs()
	s := sim.New(1)
	net := NewNetwork(s)
	sw := net.NewSwitch("tor")
	dst := net.NewHost("recv")
	net.Connect(sw, dst, LinkConfig{Rate: 10 * Gbps, Delay: sim.Microsecond, BufA: 1 << 20})
	bursters := make([]burster, senders)
	for i := 0; i < senders; i++ {
		h := net.NewHost("h")
		net.Connect(h, sw, LinkConfig{Rate: 10 * Gbps, Delay: sim.Microsecond})
		bursters[i] = burster{net: net, h: h, dst: dst.ID()}
	}
	net.ComputeRoutes()
	k := &benchSink{}
	dst.Register(1, k)
	// Pre-size pools and rings, then run one untimed burst so any residual
	// one-time growth (heap slice, port rings) lands before the clock starts.
	s.Warm(1024, 1024)
	net.Warm(1024, 1024)
	for j := range bursters {
		s.Schedule(s.Now(), &bursters[j])
	}
	s.Run()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One synchronized burst: every sender fires a window at t=now.
		for j := range bursters {
			s.Schedule(s.Now(), &bursters[j])
		}
		s.Run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	reportPerHop(b, ms1.Mallocs-ms0.Mallocs, net)
}
