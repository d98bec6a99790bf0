package main

import (
	"time"

	"tfcsim/internal/exp"
	"tfcsim/internal/faults"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
	"tfcsim/internal/workload"
)

// The composed trials below drive one experiment trial through the
// layers' public functions in the order the internal/exp driver calls
// them (topology builder, workload generator, RunUntil, reduction), so
// each layer can be timed from outside. TestComposedMatchesDriver pins
// each of them to its exp driver: the same config and seed must give the
// same typed result.

// incastTrial is exp.Incast, composed.
func incastTrial(tc *trialCtx, cfg exp.IncastConfig) exp.IncastPoint {
	cfg.Shards = 0 // exp.Incast forces the sequential engine
	var (
		e       *exp.Env
		senders []*netsim.Host
		recv    *netsim.Host
		bott    *netsim.Port
		in      *workload.Incast
		qs      *stats.Sampler
		settle  = 5 * sim.Millisecond
		pt      exp.IncastPoint
	)
	tc.phase(spanBuild, func() {
		e, senders, recv, bott = exp.Star(cfg.TopoConfig, cfg.Senders, cfg.Rate, cfg.BufBytes)
	})
	tc.phase(spanStart, func() {
		in = workload.NewIncast(workload.IncastConfig{
			Dialer: e.Dialer, Senders: senders, Receiver: recv,
			BlockBytes: cfg.BlockBytes, Rounds: cfg.Rounds,
		})
		qs = stats.NewSampler(e.Sim, cfg.QueueSamplePeriod, func() float64 {
			return float64(bott.QueueBytes())
		})
		in.Start(settle)
	})
	for e.Sim.Now() < cfg.MaxDuration && in.RoundsDone < cfg.Rounds && e.Sim.Live() > 0 {
		tc.run(e.Sim, e.Sim.Now()+10*sim.Millisecond)
	}
	tc.phase(spanReduce, func() {
		qs.Stop()
		elapsed := e.Sim.Now() - settle
		if elapsed <= 0 {
			elapsed = 1
		}
		pt = exp.IncastPoint{
			Proto:      cfg.Proto,
			Senders:    cfg.Senders,
			BlockBytes: cfg.BlockBytes,
			Goodput:    float64(in.BytesReceived()) * 8 / elapsed.Seconds(),
			AvgQ:       qs.Series.MeanV(),
			MaxQ:       bott.MaxQueue,
			Drops:      bott.Drops,
			Timeouts:   in.TotalTimeouts(),
			MaxTOBlock: in.MaxTimeoutsPerBlock(),
			Rounds:     in.RoundsDone,
			Elapsed:    elapsed,
			Events:     e.Sim.Executed(),
		}
	})
	tc.inspect(e, in.RoundsDone, cfg.Rounds)
	return pt
}

// websearchTrial is exp.Benchmark on a leaf-spine, composed.
func websearchTrial(tc *trialCtx, cfg exp.BenchmarkConfig) *exp.BenchmarkResult {
	cfg.Shards = 0 // exp.Benchmark forces the sequential engine
	var (
		e   *exp.Env
		b   *workload.Benchmark
		res *exp.BenchmarkResult
	)
	tc.phase(spanBuild, func() {
		e = exp.LeafSpine(cfg.TopoConfig, cfg.Racks, cfg.PerRack, cfg.BufBytes)
	})
	tc.phase(spanStart, func() {
		b = workload.NewBenchmark(workload.BenchmarkConfig{
			Dialer: e.Dialer, Hosts: e.Hosts,
			Duration:   cfg.Duration,
			QueryRate:  cfg.QueryRate,
			QueryFanIn: cfg.QueryFanIn,
			BgFlowRate: cfg.BgFlowRate,
		})
		b.Start()
	})
	for e.Sim.Now() < cfg.MaxDuration && e.Sim.Live() > 0 {
		tc.run(e.Sim, e.Sim.Now()+50*sim.Millisecond)
		if e.Sim.Now() >= cfg.Duration && b.DoneFraction() >= 1 {
			break
		}
	}
	done := 0
	tc.phase(spanReduce, func() {
		res = &exp.BenchmarkResult{Proto: cfg.Proto, Flows: len(b.Flows), Events: e.Sim.Executed()}
		for _, f := range b.Flows {
			if !f.Done {
				res.Unfinished++
				continue
			}
			done++
			if f.Query {
				res.QueryFCT.AddTime(f.FCT)
			} else {
				res.BgFCT[workload.BucketIndex(f.Bytes)].AddTime(f.FCT)
			}
		}
	})
	tc.inspect(e, done, len(b.Flows))
	return res
}

// faucet keeps a connection's send queue topped up while active — the
// long-lived flow exp.Permutation and exp.Robustness drive.
type faucet struct {
	conn   *workload.Conn
	active bool
	chunk  int64
}

func newFaucet(d *workload.Dialer, src, dst *netsim.Host, chunk int64) *faucet {
	f := &faucet{chunk: chunk}
	f.conn = d.Dial(src, dst, func() {
		if f.active {
			f.conn.Sender.Send(f.chunk)
		}
	}, nil)
	return f
}

func (f *faucet) Start() {
	f.active = true
	f.conn.Sender.Open()
	f.conn.Sender.Send(f.chunk)
}

// receivedFlows counts faucets that delivered any data: the useful share
// of the persistent flows a workload opened.
func receivedFlows(fs []*faucet) int {
	n := 0
	for _, f := range fs {
		if f.conn.Received() > 0 {
			n++
		}
	}
	return n
}

// fattreeTrial is exp.Permutation, composed.
func fattreeTrial(tc *trialCtx, cfg exp.PermutationConfig) exp.PermutationResult {
	var (
		ft   *exp.FatTreeEnv
		fs   []*faucet
		res  exp.PermutationResult
		base []int64
	)
	tc.phase(spanBuild, func() {
		ft = exp.FatTree(cfg.TopoConfig, cfg.K, cfg.Rate, cfg.BufBytes)
	})
	if g := ft.Net.Group(); g != nil && tc.tr != nil {
		g.SetClock(func() int64 { return time.Now().UnixNano() })
	}
	tc.phase(spanStart, func() {
		// Cross-pod permutation: host i of pod p sends to host i of pod p+1.
		for p := 0; p < ft.K; p++ {
			dstPod := (p + 1) % ft.K
			for i, src := range ft.PodHosts[p] {
				f := newFaucet(ft.Dialer, src, ft.PodHosts[dstPod][i], 1<<20)
				fs = append(fs, f)
				ft.Sim.At(0, f.Start)
			}
		}
	})
	tc.run(ft.Sim, cfg.Warmup)
	base = make([]int64, len(fs))
	for i, f := range fs {
		base[i] = f.conn.Received()
	}
	tc.run(ft.Sim, cfg.Duration)
	tc.phase(spanReduce, func() {
		span := (cfg.Duration - cfg.Warmup).Seconds()
		res = exp.PermutationResult{Proto: cfg.Proto, Hosts: len(fs), MinFlow: -1}
		for i, f := range fs {
			r := float64(f.conn.Received()-base[i]) * 8 / span
			res.AggGoodput += r
			if res.MinFlow < 0 || r < res.MinFlow {
				res.MinFlow = r
			}
			if r > res.MaxFlow {
				res.MaxFlow = r
			}
		}
		for _, sw := range ft.Switches {
			for _, p := range sw.Ports() {
				res.Drops += p.Drops
				if p.MaxQueue > res.MaxQueue {
					res.MaxQueue = p.MaxQueue
				}
			}
		}
		res.Events = ft.Sim.Executed()
		if g := ft.Net.Group(); g != nil {
			gs := g.Stats()
			res.Group = &gs
		}
	})
	tc.inspect(ft.Env, receivedFlows(fs), len(fs))
	return res
}

// observedTrial is exp.Robustness, composed (sequential engine).
func observedTrial(tc *trialCtx, cfg exp.RobustnessConfig, scenario string) exp.RobustnessPoint {
	var (
		e        *exp.Env
		senders  []*netsim.Host
		recv     *netsim.Host
		bott     *netsim.Port
		fs       []*faucet
		upAt     = cfg.Warmup + cfg.Blackout
		end      = upAt + cfg.Tail
		recovery = sim.Time(-1)
		postPeak int
		tailBase int64
		pt       exp.RobustnessPoint
	)
	tc.phase(spanBuild, func() {
		e, senders, recv, bott = exp.Star(cfg.TopoConfig, cfg.Flows, exp.TestbedRate, exp.TestbedBuf)
	})
	tc.phase(spanStart, func() {
		for _, h := range senders {
			f := newFaucet(e.Dialer, h, recv, 256<<10)
			fs = append(fs, f)
			e.Sim.At(0, f.Start)
		}
		inj := faults.NewScheduler(e.Sim)
		inj.Probe = cfg.Telemetry.FaultProbe()
		if cfg.Blackout > 0 {
			inj.LinkDown(cfg.Warmup, cfg.Blackout, false, bott, recv.NIC())
		}
		if cfg.Loss > 0 {
			inj.BurstyLoss(cfg.Warmup, 0, bott, faults.NewGilbertElliott(cfg.Loss, cfg.Burst))
		}

		// Recovery detector: RecoverRun consecutive UtilWindows at >= 90%
		// of the bottleneck's capacity.
		winBytes := 0.9 * float64(bott.Rate.BytesIn(cfg.UtilWindow))
		var lastFrames int64
		var streak int
		var streakStart sim.Time
		var utilTick func()
		utilTick = func() {
			now := e.Sim.Now()
			delta := bott.TxFrames - lastFrames
			lastFrames = bott.TxFrames
			if now > upAt && cfg.Blackout > 0 && recovery < 0 {
				if float64(delta) >= winBytes {
					if streak == 0 {
						streakStart = now - cfg.UtilWindow
					}
					streak++
					if streak >= cfg.RecoverRun {
						recovery = streakStart - upAt
						if recovery < 0 {
							recovery = 0
						}
					}
				} else {
					streak = 0
				}
			}
			if now < end {
				e.Sim.After(cfg.UtilWindow, utilTick)
			}
		}
		e.Sim.After(cfg.UtilWindow, utilTick)

		var qTick func()
		qTick = func() {
			if q := bott.QueueBytes(); q > postPeak {
				postPeak = q
			}
			if e.Sim.Now() < end {
				e.Sim.After(100*sim.Microsecond, qTick)
			}
		}
		e.Sim.At(upAt, qTick)
		e.Sim.At(upAt, func() {
			for _, f := range fs {
				tailBase += f.conn.Received()
			}
		})
	})
	tc.run(e.Sim, end)
	tc.phase(spanReduce, func() {
		pt = exp.RobustnessPoint{Proto: cfg.Proto, Scenario: scenario, Recovery: recovery, PostQPeak: postPeak}
		var total int64
		for _, f := range fs {
			total += f.conn.Received()
			st := f.conn.Sender.Stats()
			pt.RtxBytes += st.RtxBytes
			pt.Timeouts += st.Timeouts
		}
		pt.Goodput = float64(total-tailBase) * 8 / cfg.Tail.Seconds()
		pt.Drops = bott.Drops + recv.NIC().Drops
		pt.Events = e.Sim.Executed()
	})
	tc.inspect(e, receivedFlows(fs), len(fs))
	return pt
}
