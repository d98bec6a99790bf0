package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strconv"
	"strings"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
	"tfcsim/internal/telemetry"
)

// spec is one cell of a workload's closed batch of trials.
type spec struct {
	Proto    exp.Proto
	Senders  int               // incast fan-in
	Scenario exp.FaultScenario // observed fault pattern
}

// workloadDef is one benchmark workload: a fixed grid of trials, run to
// completion as one batch through the runner pool.
type workloadDef struct {
	name, why string
	// workers is the runner pool's parallelism (the fattree trials run one
	// at a time on the 2-shard engine instead).
	workers int
	specs   []spec
	// instrumented runs the program's telemetry, packet spans and
	// watchdogs on every trial.
	instrumented bool
	params       any // recorded in the run manifest
	// run is the composed trial; driver is the same trial through the
	// internal/exp driver, for golden digests and the equivalence test.
	// Both take the instrumented workload's telemetry collector (nil
	// otherwise).
	run    func(tc *trialCtx, s spec, seed int64) any
	driver func(s spec, seed int64, col *telemetry.Collector) any
	// format is the batch's stats reduction: the report tfcsim prints.
	format func(rs []any) string
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads() {
		ns = append(ns, w.name)
	}
	return ns
}

// protoGrid lists replicas trials of every protocol, protocol order
// repeated. Each trial draws its own seed, so replicas average the
// seed-to-seed variation of a heavy-tailed workload over more draws.
func protoGrid(protos []exp.Proto, replicas int) []spec {
	var ss []spec
	for r := 0; r < replicas; r++ {
		for _, p := range protos {
			ss = append(ss, spec{Proto: p})
		}
	}
	return ss
}

// Workload inputs. Sizes are chosen so one batch takes a few host seconds
// on a 2-core machine; see README.md for the reasoning per workload.
var (
	incastSenders = []int{10, 40, 70, 100}

	incastCfg = exp.IncastConfig{
		Rate: netsim.Gbps, BufBytes: exp.TestbedBuf, BlockBytes: 256 << 10,
		Rounds: 4, MaxDuration: 60 * sim.Second, QueueSamplePeriod: sim.Millisecond,
	}
	websearchCfg = exp.BenchmarkConfig{
		Racks: 18, PerRack: 20, BufBytes: 512 << 10,
		Duration: 200 * sim.Millisecond, MaxDuration: 30200 * sim.Millisecond,
		QueryRate: 40, BgFlowRate: 2000,
	}
	// websearchReplicas trials per transport put ~12000 background flows
	// and ~240 queries in a batch: flow sizes are heavy-tailed, so fewer
	// draws leave a batch's total work varying by tens of percent from
	// seed to seed (16% quartile spread with one trial per transport).
	websearchReplicas = 6
	fattreeCfg        = exp.PermutationConfig{
		K: 16, Rate: netsim.Gbps, BufBytes: exp.TestbedBuf,
		Warmup: sim.Millisecond, Duration: 5 * sim.Millisecond,
	}
	fattreeShards = 2
	observedCfg   = exp.RobustnessConfig{
		Flows: 8, Warmup: 100 * sim.Millisecond, Tail: 500 * sim.Millisecond,
		UtilWindow: sim.Millisecond, RecoverRun: 10,
	}
	// observedSpanEvery samples 1-in-N flows for packet spans, and
	// observedRingCap bounds each trial's trace recorder, so a batch's
	// trace stays a few MB.
	observedSpanEvery = 4
	observedRingCap   = 1 << 12
)

func (s spec) incast(seed int64) exp.IncastConfig {
	c := incastCfg
	c.Proto, c.Senders, c.Seed = s.Proto, s.Senders, seed
	return c
}

func (s spec) websearch(seed int64) exp.BenchmarkConfig {
	c := websearchCfg
	c.Proto, c.Seed = s.Proto, seed
	return c
}

func (s spec) fattree(seed int64) exp.PermutationConfig {
	c := fattreeCfg
	c.Proto, c.Seed, c.Shards = s.Proto, seed, fattreeShards
	return c
}

func (s spec) observed(seed int64) exp.RobustnessConfig {
	c := observedCfg
	c.Proto, c.Seed = s.Proto, seed
	c.Blackout, c.Loss, c.Burst = s.Scenario.Blackout, s.Scenario.Loss, s.Scenario.Burst
	if c.Burst == 0 {
		c.Burst = 5
	}
	return c
}

// observedKey is the trial's telemetry key, as exp.RobustnessSweep mints it.
func (s spec) observedKey() string { return s.Scenario.Name + "-" + string(s.Proto) }

func workloads() []*workloadDef {
	var incastSpecs, observedSpecs []spec
	for _, p := range exp.AllProtos {
		for _, n := range incastSenders {
			incastSpecs = append(incastSpecs, spec{Proto: p, Senders: n})
		}
	}
	for _, sc := range exp.DefaultScenarios {
		for _, p := range exp.AllProtos {
			observedSpecs = append(observedSpecs, spec{Proto: p, Scenario: sc})
		}
	}
	return []*workloadDef{
		{
			name:    "incast",
			why:     "fig12 testbed incast: per-packet forwarding, token bucket, ACK-delay arbiter and TCP timeouts on one switch",
			workers: 2,
			specs:   incastSpecs,
			params: map[string]any{"topology": "exp.Star", "rate_bps": incastCfg.Rate,
				"buf_bytes": incastCfg.BufBytes, "block_bytes": incastCfg.BlockBytes,
				"rounds": incastCfg.Rounds, "senders": incastSenders, "protos": exp.AllProtos},
			run: func(tc *trialCtx, s spec, seed int64) any {
				return incastTrial(tc, s.incast(seed))
			},
			driver: func(s spec, seed int64, _ *telemetry.Collector) any { return exp.Incast(s.incast(seed)) },
			format: func(rs []any) string {
				return exp.FormatIncast("Fig 12 — testbed incast (1 Gbps, 256 KB blocks)", typed[exp.IncastPoint](rs))
			},
		},
		{
			name:    "websearch",
			why:     "fig16 leaf-spine web search: thousands of short flows stress connection set-up, RTO timers and FCT reductions",
			workers: 2,
			specs:   protoGrid(exp.AllProtos, websearchReplicas),
			params: map[string]any{"topology": "exp.LeafSpine", "racks": websearchCfg.Racks,
				"per_rack": websearchCfg.PerRack, "buf_bytes": websearchCfg.BufBytes,
				"duration_ms": websearchCfg.Duration.Millis(), "query_rate": websearchCfg.QueryRate,
				"bg_flow_rate": websearchCfg.BgFlowRate, "protos": exp.AllProtos,
				"replicas": websearchReplicas},
			run: func(tc *trialCtx, s spec, seed int64) any {
				return websearchTrial(tc, s.websearch(seed))
			},
			driver: func(s spec, seed int64, _ *telemetry.Collector) any { return exp.Benchmark(s.websearch(seed)) },
			format: func(rs []any) string {
				return exp.FormatBenchmark("Fig 16 — large-scale benchmark", typed[*exp.BenchmarkResult](rs))
			},
		},
		{
			name:    "fattree",
			why:     "k=16 fat-tree permutation on the 2-shard engine: route computation, ECMP lookups and epoch barriers",
			workers: 1,
			specs:   protoGrid([]exp.Proto{exp.TFC, exp.TCP}, 1),
			params: map[string]any{"topology": "exp.FatTree", "k": fattreeCfg.K, "rate_bps": fattreeCfg.Rate,
				"buf_bytes": fattreeCfg.BufBytes, "warmup_ms": fattreeCfg.Warmup.Millis(),
				"duration_ms": fattreeCfg.Duration.Millis(), "shards": fattreeShards,
				"protos": []exp.Proto{exp.TFC, exp.TCP}},
			run: func(tc *trialCtx, s spec, seed int64) any {
				return fattreeTrial(tc, s.fattree(seed))
			},
			driver: func(s spec, seed int64, _ *telemetry.Collector) any { return exp.Permutation(s.fattree(seed)) },
			format: func(rs []any) string {
				return exp.FormatPermutation(typed[exp.PermutationResult](rs))
			},
		},
		{
			name:         "observed",
			why:          "robustness fault sweep with telemetry, packet spans and watchdogs on: the faults, telemetry and obs layers",
			workers:      2,
			specs:        observedSpecs,
			instrumented: true,
			params: map[string]any{"topology": "exp.Star", "flows": observedCfg.Flows,
				"warmup_ms": observedCfg.Warmup.Millis(), "tail_ms": observedCfg.Tail.Millis(),
				"scenarios": exp.DefaultScenarios, "protos": exp.AllProtos,
				"span_every": observedSpanEvery, "ring_cap": observedRingCap, "watchdogs": true},
			run: func(tc *trialCtx, s spec, seed int64) any {
				c := s.observed(seed)
				c.Telemetry = tc.telemetry.Trial(s.observedKey())
				return observedTrial(tc, c, s.Scenario.Name)
			},
			driver: func(s spec, seed int64, col *telemetry.Collector) any {
				c := s.observed(seed)
				c.Telemetry = col.Trial(s.observedKey())
				pt := exp.Robustness(c)
				pt.Scenario = s.Scenario.Name
				return pt
			},
			format: func(rs []any) string {
				return exp.FormatRobustness(typed[exp.RobustnessPoint](rs))
			},
		},
	}
}

func typed[T any](rs []any) []T {
	out := make([]T, len(rs))
	for i, r := range rs {
		out[i] = r.(T)
	}
	return out
}

// digest hashes a trial's typed result, including its simulator event
// count. Timing-dependent fields (the sharded engine's wall-clock
// profile) are left out; everything else must repeat exactly.
func digest(r any) string {
	h := sha256.New()
	switch v := r.(type) {
	case exp.IncastPoint:
		put(h, v.Proto, v.Senders, v.BlockBytes, v.Goodput, v.AvgQ, v.MaxQ, v.Drops,
			v.Timeouts, v.MaxTOBlock, v.Rounds, v.Elapsed, v.Events)
	case *exp.BenchmarkResult:
		put(h, v.Proto, v.Unfinished, v.Flows, v.Events)
		putSample(h, &v.QueryFCT)
		for i := range v.BgFCT {
			putSample(h, &v.BgFCT[i])
		}
	case exp.PermutationResult:
		put(h, v.Proto, v.Hosts, v.AggGoodput, v.MinFlow, v.MaxFlow, v.Drops, v.MaxQueue, v.Events)
		if v.Group != nil {
			put(h, v.Group.Shards, v.Group.Epochs, v.Group.Ties, v.Group.MailDelivered)
			for _, sh := range v.Group.PerShard {
				put(h, sh.Executed)
			}
		}
	case exp.RobustnessPoint:
		put(h, v.Proto, v.Scenario, v.Recovery, v.PostQPeak, v.Goodput, v.RtxBytes,
			v.Timeouts, v.Drops, v.Events)
	default:
		panic(fmt.Sprintf("perfbench: no digest for %T", r))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func putSample(h hash.Hash, s *stats.Sample) {
	xs := s.Values()
	sort.Float64s(xs)
	vals := make([]any, len(xs))
	for i, x := range xs {
		vals[i] = x
	}
	put(h, len(xs))
	put(h, vals...)
}

// put writes each value exactly: floats in shortest round-trip form,
// integer kinds (sim.Time included) as decimal.
func put(h hash.Hash, vals ...any) {
	var b strings.Builder
	for _, v := range vals {
		switch x := v.(type) {
		case float64:
			b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		case exp.Proto:
			b.WriteString(string(x))
		case string:
			b.WriteString(x)
		default:
			fmt.Fprintf(&b, "%d", x)
		}
		b.WriteByte('|')
	}
	h.Write([]byte(b.String()))
}
