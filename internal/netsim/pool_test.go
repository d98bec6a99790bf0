package netsim

import (
	"testing"
	"unsafe"

	"tfcsim/internal/sim"
)

func TestPacketReleasedMarkFitsPadding(t *testing.T) {
	// The released mark sits in the padding after Weight, so a packet is
	// no bigger than its header fields alone.
	type headerFields struct {
		Flow     FlowID
		Src, Dst NodeID
		Seq, Ack int64
		Payload  int
		Flags    Flag
		Window   int64
		Weight   uint8
		SentAt   sim.Time
		Hops     int
	}
	if got, want := unsafe.Sizeof(Packet{}), unsafe.Sizeof(headerFields{}); got != want {
		t.Fatalf("sizeof(Packet) = %d, want %d (the header fields alone)", got, want)
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// releasedPacket returns a packet that h1 allocated and then released.
func releasedPacket() (*Packet, *Host) {
	s := sim.New(1)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	net.Connect(h1, h2, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	net.ComputeRoutes()
	p := h1.NewPacket()
	p.Flow, p.Src, p.Dst, p.Payload = 7, h1.ID(), h2.ID(), MSS
	h1.NIC().ReleasePacket(p)
	return p, h1
}

func TestDoubleReleasePanics(t *testing.T) {
	p, h1 := releasedPacket()
	mustPanic(t, "second release", func() { h1.NIC().ReleasePacket(p) })
}

func TestSendReleasedPanics(t *testing.T) {
	p, h1 := releasedPacket()
	mustPanic(t, "Host.Send of a released packet", func() { h1.Send(p) })
}

func TestEnqueueReleasedPanics(t *testing.T) {
	p, h1 := releasedPacket()
	mustPanic(t, "Port.Enqueue of a released packet", func() { h1.NIC().Enqueue(p) })
}

// poolSize is the number of packets the network's pools own. Once every
// packet has been delivered, that is every packet ever allocated.
func poolSize(net *Network) int {
	n := 0
	for _, sh := range net.shards {
		n += len(sh.pktFree)
	}
	return n
}

func TestCrossShardPoolBounded(t *testing.T) {
	// Each shard allocates what it sends and releases what it receives,
	// so with traffic both ways capacity migrates between the pools but
	// their total must stop growing after the first rounds.
	const (
		rounds = 8
		burst  = 100                   // packets per direction per round (not a slab multiple)
		period = 400 * sim.Microsecond // each burst drains in ~130us
	)
	s := sim.New(1)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	net.Connect(h1, h2, LinkConfig{Rate: 10 * Gbps, Delay: 2 * sim.Microsecond})
	net.ComputeRoutes()
	if err := net.Partition([]int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	var got [2]int
	h1.Register(2, deliverFunc(func(*Packet) { got[0]++ }))
	h2.Register(1, deliverFunc(func(*Packet) { got[1]++ }))
	send := func(from, to *Host, flow FlowID) func() {
		return func() {
			for i := 0; i < burst; i++ {
				p := from.NewPacket()
				p.Flow, p.Src, p.Dst, p.Payload = flow, from.ID(), to.ID(), MSS
				p.Seq = int64(i) * MSS
				from.Send(p)
			}
		}
	}
	for r := 0; r < 4*rounds; r++ {
		at := sim.Time(r) * period
		h1.Sim().At(at, send(h1, h2, 1))
		h2.Sim().At(at+period/2, send(h2, h1, 2))
	}

	// Stop between rounds, once both bursts have drained.
	s.RunUntil(rounds*period - period/8)
	if got != [2]int{rounds * burst, rounds * burst} {
		t.Fatalf("after %d rounds delivered %v, want %d each way", rounds, got, rounds*burst)
	}
	early := poolSize(net)
	s.Run()
	if got != [2]int{4 * rounds * burst, 4 * rounds * burst} {
		t.Fatalf("after %d rounds delivered %v, want %d each way", 4*rounds, got, 4*rounds*burst)
	}
	if late := poolSize(net); late != early {
		t.Fatalf("pool holds %d packets after %d rounds, %d after %d: it grows with run length",
			early, rounds, late, 4*rounds)
	}
	if early == 0 || early > 4*pktSlab {
		t.Fatalf("pool holds %d packets, want a few slabs for %d in flight", early, 2*burst)
	}
}
