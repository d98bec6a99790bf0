package netsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// oracleRoutes is the all-pairs reference ComputeRoutes is held to: one
// BFS per node over the directed port edges, then, for every switch and
// destination, every port (in creation order) whose peer is one hop
// closer. It is the algorithm ComputeRoutes ran before dense tables.
func oracleRoutes(n *netsim.Network) map[netsim.NodeID]map[netsim.NodeID][]*netsim.Port {
	const inf = int(^uint(0) >> 1)
	nodes := n.Nodes()
	dist := make(map[netsim.NodeID][]int, len(nodes))
	for _, src := range nodes {
		d := make([]int, len(nodes))
		for i := range d {
			d[i] = inf
		}
		d[src.ID()] = 0
		frontier := []netsim.Node{src}
		for len(frontier) > 0 {
			var next []netsim.Node
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
	routes := make(map[netsim.NodeID]map[netsim.NodeID][]*netsim.Port)
	for _, node := range nodes {
		sw, ok := node.(*netsim.Switch)
		if !ok {
			continue
		}
		rt := make(map[netsim.NodeID][]*netsim.Port, len(nodes))
		for _, dst := range nodes {
			if dst.ID() == sw.ID() {
				continue
			}
			d := dist[sw.ID()][dst.ID()]
			if d == inf {
				continue
			}
			var ports []*netsim.Port
			for _, p := range sw.Ports() {
				if dist[p.Peer.ID()][dst.ID()] == d-1 {
					ports = append(ports, p)
				}
			}
			rt[dst.ID()] = ports
		}
		routes[sw.ID()] = rt
	}
	return routes
}

// checkRoutes computes routes and asserts that, for every switch and
// every destination (plus IDs just outside the node range), PortsTo
// returns the oracle's ports pointer for pointer and in order, and PortTo
// its first port.
func checkRoutes(t *testing.T, n *netsim.Network) {
	t.Helper()
	n.ComputeRoutes()
	want := oracleRoutes(n)
	nodes := n.Nodes()
	for _, node := range nodes {
		sw, ok := node.(*netsim.Switch)
		if !ok {
			continue
		}
		for dst := -1; dst <= len(nodes); dst++ {
			id := netsim.NodeID(dst)
			got, w := sw.PortsTo(id), want[sw.ID()][id]
			if !slices.Equal(got, w) {
				t.Fatalf("%s -> node %d: PortsTo = %v, oracle %v", sw.Name(), dst, labels(got), labels(w))
			}
			var first *netsim.Port
			if len(w) > 0 {
				first = w[0]
			}
			if p := sw.PortTo(id); p != first {
				t.Fatalf("%s -> node %d: PortTo = %v, oracle %v", sw.Name(), dst, p, first)
			}
		}
	}
}

func labels(ports []*netsim.Port) []string {
	var s []string
	for _, p := range ports {
		s = append(s, p.Label)
	}
	return s
}

var routeLink = netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond}

// TestRoutesMatchOracleRandom covers seeded random graphs: parallel
// switch-switch links, hosts with one or two NICs, isolated nodes, and
// whatever disconnected components the draw produces.
func TestRoutesMatchOracleRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := netsim.NewNetwork(sim.New(seed))
		var switches []*netsim.Switch
		var all []netsim.Node
		for i := 0; i < 2+rng.Intn(12); i++ {
			sw := n.NewSwitch(fmt.Sprintf("s%d", i))
			switches = append(switches, sw)
			all = append(all, sw)
		}
		for i := 0; i < rng.Intn(3*len(switches)); i++ {
			a, b := switches[rng.Intn(len(switches))], switches[rng.Intn(len(switches))]
			if a == b {
				continue
			}
			for c := 0; c < 1+rng.Intn(2); c++ {
				n.Connect(a, b, routeLink)
			}
		}
		for i := 0; i < rng.Intn(24); i++ {
			h := n.NewHost(fmt.Sprintf("h%d", i))
			all = append(all, h)
			for nic := 0; nic < rng.Intn(3); nic++ {
				n.Connect(h, switches[rng.Intn(len(switches))], routeLink)
			}
		}
		if rng.Intn(2) == 0 {
			// A degree-1 pair whose ends are each other's only neighbour.
			a, b := all[rng.Intn(len(all))], n.NewSwitch("pair")
			if len(a.Ports()) == 0 {
				n.Connect(a, b, routeLink)
			}
		}
		checkRoutes(t, n)
	}
}

// TestRoutesDualHomedHost: a host with two NICs is not a leaf, so it
// gets its own BFS; both of its switches reach it directly and the
// switch behind them load-balances over both.
func TestRoutesDualHomedHost(t *testing.T) {
	n := netsim.NewNetwork(sim.New(1))
	top := n.NewSwitch("top")
	s1, s2 := n.NewSwitch("s1"), n.NewSwitch("s2")
	h := n.NewHost("dual")
	o := n.NewHost("other")
	n.Connect(top, s1, routeLink)
	n.Connect(top, s2, routeLink)
	n.Connect(h, s1, routeLink)
	n.Connect(h, s2, routeLink)
	n.Connect(o, top, routeLink)
	checkRoutes(t, n)
	if got := len(top.PortsTo(h.ID())); got != 2 {
		t.Fatalf("top has %d ports toward the dual-homed host, want 2", got)
	}
}

// TestRoutesDisconnectedIsland: switches and hosts in another component,
// a lone switch, and a two-switch island get no routes across.
func TestRoutesDisconnectedIsland(t *testing.T) {
	n := netsim.NewNetwork(sim.New(1))
	a, b := n.NewSwitch("a"), n.NewSwitch("b")
	ha, hb := n.NewHost("ha"), n.NewHost("hb")
	n.Connect(ha, a, routeLink)
	n.Connect(hb, b, routeLink)
	x, y := n.NewSwitch("x"), n.NewSwitch("y")
	hx := n.NewHost("hx")
	n.Connect(x, y, routeLink)
	n.Connect(x, y, routeLink)
	n.Connect(hx, y, routeLink)
	n.NewSwitch("lone")
	p, q := n.NewSwitch("p"), n.NewSwitch("q")
	n.Connect(p, q, routeLink)
	checkRoutes(t, n)
	if a.PortsTo(hx.ID()) != nil || x.PortsTo(ha.ID()) != nil || p.PortsTo(a.ID()) != nil {
		t.Fatal("a route crosses disconnected components")
	}
	if q.PortTo(p.ID()) == nil {
		t.Fatal("two-switch island: q has no route to p")
	}
}

// TestRoutesManyPorts: route sets over more than 64 ports. The hub's 100
// host links interleave with 70 parallel links to far, so the set toward
// far spans 140 port positions with gaps.
func TestRoutesManyPorts(t *testing.T) {
	n := netsim.NewNetwork(sim.New(1))
	hub, far := n.NewSwitch("hub"), n.NewSwitch("far")
	for i := 0; i < 100; i++ {
		n.Connect(n.NewHost(fmt.Sprintf("h%d", i)), hub, routeLink)
		if i < 70 {
			n.Connect(hub, far, routeLink)
		}
	}
	dst := n.NewHost("dst")
	n.Connect(dst, far, routeLink)
	// beyond has two links, so it gets its own BFS.
	beyond := n.NewSwitch("beyond")
	n.Connect(far, beyond, routeLink)
	n.Connect(far, beyond, routeLink)
	checkRoutes(t, n)
	toDst, toBeyond := hub.PortsTo(dst.ID()), hub.PortsTo(beyond.ID())
	if len(toDst) != 70 || &toDst[0] != &toBeyond[0] {
		t.Fatalf("hub routes %d ports toward dst, want 70 shared with the set toward beyond", len(toDst))
	}
}

// TestRoutesSharedSets: equal route sets at one switch are one slice.
func TestRoutesSharedSets(t *testing.T) {
	ft := exp.FatTree(exp.TopoConfig{Proto: exp.TCP}, 4, netsim.Gbps, 0)
	edge := ft.Edges[0][0]
	a, b := ft.Hosts[len(ft.Hosts)-1], ft.Hosts[len(ft.Hosts)-2]
	pa, pb := edge.PortsTo(a.ID()), edge.PortsTo(b.ID())
	if len(pa) != 2 || &pa[0] != &pb[0] {
		t.Fatalf("edge routes to two remote hosts are not one shared set: %v, %v", labels(pa), labels(pb))
	}
}

// TestRoutesMatchOracleTopologies holds every experiment topology family
// to the oracle.
func TestRoutesMatchOracleTopologies(t *testing.T) {
	cfg := func() exp.TopoConfig { return exp.TopoConfig{Proto: exp.TCP} }
	for _, tc := range []struct {
		name  string
		build func() *netsim.Network
	}{
		{"fattree-4", func() *netsim.Network { return exp.FatTree(cfg(), 4, netsim.Gbps, 0).Net }},
		{"fattree-8", func() *netsim.Network { return exp.FatTree(cfg(), 8, netsim.Gbps, 0).Net }},
		{"leafspine-18x20", func() *netsim.Network { return exp.LeafSpine(cfg(), 18, 20, 0).Net }},
		{"star-100", func() *netsim.Network {
			e, _, _, _ := exp.Star(cfg(), 100, netsim.Gbps, 0)
			return e.Net
		}},
		{"testbed", func() *netsim.Network { return exp.Testbed(cfg()).Net }},
		{"multibottleneck", func() *netsim.Network { return exp.MultiBottleneck(cfg()).Net }},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRoutes(t, tc.build()) })
	}
}
