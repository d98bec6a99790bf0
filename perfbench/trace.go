package main

import (
	"sort"
	"sync"
	"time"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
	"tfcsim/internal/transport"
)

// Span names: one per layer boundary the benchmark calls across.
const (
	spanBatch   = "batch"
	spanTrial   = "trial"
	spanBuild   = "exp.build"
	spanRoutes  = "netsim.compute_routes"
	spanLookup  = "netsim.route_lookup"
	spanStart   = "workload.start"
	spanRun     = "sim.run"
	spanReduce  = "stats.reduce"
	spanExport  = "telemetry.export"
	spanInspect = "bench.inspect"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin; parent 0 means a root span. Spans of one trial share
// its trial id (-1 for batch-level spans).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Trial  int    `json:"trial"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// *tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, trial int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Trial: trial, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes sums each span name's self time: its duration minus the part
// of it that its child spans cover (children of a batch overlap when
// trials run in parallel, so covered time is the union of their
// intervals).
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, hi int64
		hi = s.Start
		for _, c := range iv {
			lo, e := max(c[0], hi), min(c[1], s.End)
			if e > lo {
				covered += e - lo
				hi = e
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// trialCtx carries one trial's timing and layer counts. The composed
// trials call phase/run around each layer call; inspect gathers the
// traced-only layer counts after the simulation ends.
type trialCtx struct {
	tr        *tracer
	parent    int
	trial     int
	telemetry *telemetry.Collector // observed workload only
	m         trialMeasure
}

// trialMeasure is what one trial reports to the batch.
type trialMeasure struct {
	buildNs, startNs, simNs, reduceNs int64
	events                            uint64

	// Layer counts, gathered only on traced runs.
	flows, done, doneOf      int
	routesNs, lookupNs       int64
	lookups                  int64
	hops, drops              int64
	heapDisp, laneDisp       uint64
	rtxBytes, acked, timeout int64
	group                    *sim.GroupStats
}

func (tc *trialCtx) phase(name string, fn func()) {
	id := tc.tr.begin(name, tc.parent, tc.trial)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Nanoseconds()
	tc.tr.end(id)
	switch name {
	case spanBuild:
		tc.m.buildNs += d
	case spanStart:
		tc.m.startNs += d
	case spanReduce:
		tc.m.reduceNs += d
	}
}

// run advances the simulation to end: one sim.run span per RunUntil.
func (tc *trialCtx) run(s *sim.Simulator, end sim.Time) {
	id := tc.tr.begin(spanRun, tc.parent, tc.trial)
	t0 := time.Now()
	s.RunUntil(end)
	tc.m.simNs += time.Since(t0).Nanoseconds()
	tc.tr.end(id)
}

// inspect records the trial's event count and, on traced runs, reads the
// layer counts off the finished environment: packet hops and drops,
// dispatch split, per-flow transport statistics, and timed re-runs of
// route computation and route lookup (both idempotent reads of the
// network, done after the results were taken). done/doneOf is the
// workload's useful-to-attempted ratio.
func (tc *trialCtx) inspect(e *exp.Env, done, doneOf int) {
	tc.m.events = e.Sim.Executed()
	if tc.tr == nil {
		return
	}
	id := tc.tr.begin(spanInspect, tc.parent, tc.trial)
	defer tc.tr.end(id)
	m := &tc.m
	m.done, m.doneOf = done, doneOf
	for _, n := range e.Net.Nodes() {
		for _, p := range n.Ports() {
			m.hops += p.TxPackets
			m.drops += p.Drops
		}
	}
	m.heapDisp, m.laneDisp = e.Sim.DispatchStats()
	if g := e.Net.Group(); g != nil {
		gs := g.Stats()
		m.group = &gs
		for _, sh := range gs.PerShard {
			m.heapDisp += sh.HeapDispatch
			m.laneDisp += sh.LaneDispatch
		}
	}

	// Flow IDs are dense from 1; each flow's sender and receiver stay
	// registered on their hosts after the run.
	type route struct {
		flow netsim.FlowID
		dst  netsim.NodeID
	}
	last := e.Dialer.IDs.Next()
	m.flows = int(last - 1)
	routes := make([]route, 0, m.flows)
	for _, h := range e.Hosts {
		for f := netsim.FlowID(1); f < last; f++ {
			switch ep := h.Endpoint(f).(type) {
			case nil:
			case transport.Sender:
				st := ep.Stats()
				m.rtxBytes += st.RtxBytes
				m.acked += st.BytesAcked
				m.timeout += st.Timeouts
			default:
				routes = append(routes, route{f, h.ID()})
			}
		}
	}
	// Flow order interleaves destinations the way packets do, so the
	// switches' one-entry route cache hits only where real traffic would.
	sort.Slice(routes, func(i, j int) bool { return routes[i].flow < routes[j].flow })

	rid := tc.tr.begin(spanRoutes, id, tc.trial)
	t0 := time.Now()
	e.Net.ComputeRoutes()
	m.routesNs = time.Since(t0).Nanoseconds()
	tc.tr.end(rid)

	lid := tc.tr.begin(spanLookup, id, tc.trial)
	t0 = time.Now()
	for _, sw := range e.Switches {
		for _, r := range routes {
			if sw.PortFor(r.flow, r.dst) != nil {
				m.lookups++
			}
		}
	}
	m.lookupNs = time.Since(t0).Nanoseconds()
	tc.tr.end(lid)
}
