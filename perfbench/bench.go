package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tfcsim/internal/exp"
	"tfcsim/internal/obs"
	"tfcsim/internal/runner"
	"tfcsim/internal/telemetry"
)

// bench runs one workload and keeps its correctness tally.
type bench struct {
	w      *workloadDef
	seed   int64
	outDir string
	probe  *hostProbe
	// golden holds the exp driver's per-trial digests when seed is the
	// golden seed; first holds each trial's first digest in this run, which
	// every repeat must match. Instrumentation adds simulator events (the
	// telemetry sampling ticks), so the traced run's uninstrumented
	// comparison batches keep digests of their own, keyed false.
	golden    []string
	first     map[bool][]string
	firstText [32]byte
	attempted int
	failed    int
	failures  []string
}

func newBench(w *workloadDef, seed int64, outDir string) *bench {
	b := &bench{w: w, seed: seed, outDir: outDir, first: map[bool][]string{
		false: make([]string, len(w.specs)), true: make([]string, len(w.specs)),
	}}
	if seed == goldenSeed {
		b.golden = loadGolden()[w.name]
		if b.golden != nil && len(b.golden) != len(w.specs) {
			fatal(fmt.Errorf("golden.json has %d digests for %s, want %d: regenerate it with --write-golden",
				len(b.golden), w.name, len(w.specs)))
		}
	}
	return b
}

// batchResult is one batch: every trial of the workload, run to
// completion through the runner pool, then reduced and exported.
type batchResult struct {
	wall, cpu              float64 // host seconds
	slow                   float64 // host slowdown: probe time ÷ probeRefNs
	peakMB                 float64 // peak resident memory
	mallocs, bytes, gcs    uint64
	trials                 []trialMeasure
	trialWalls             []float64
	formatNs, exportNs     int64
	traceBytes, traceSpans int64
}

// runBatch runs the workload once. Only the program's work — trials, the
// report reduction and the telemetry export — falls inside the timed
// window; the result checks run after it.
func (b *bench) runBatch(tr *tracer, instrumented bool) batchResult {
	n := len(b.w.specs)
	res := batchResult{trials: make([]trialMeasure, n)}
	var (
		col *telemetry.Collector
		ob  *obs.Observatory
		dir string
		err error
	)
	if instrumented {
		if dir, err = os.MkdirTemp(b.outDir, "telemetry-"); err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	}

	// Every batch starts from a collected heap returned to the OS, so one
	// batch's garbage sets neither the next one's GC schedule nor its
	// resident memory.
	debug.FreeOSMemory()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.probe.begin()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	bid := tr.begin(spanBatch, 0, -1)
	if instrumented {
		col, ob = instrument(b.w.name, dir)
	}
	pool := &runner.Pool{Parallelism: b.w.workers, BaseSeed: b.seed}
	results, trials, _ := runner.Map(context.Background(), pool, n, func(i int, seed int64) (any, error) {
		tid := tr.begin(spanTrial, bid, i)
		defer tr.end(tid)
		tc := &trialCtx{tr: tr, parent: tid, trial: i, telemetry: col}
		r := b.w.run(tc, b.w.specs[i], seed)
		res.trials[i] = tc.m
		return r, nil
	})
	allOK := true
	for _, m := range trials {
		res.trialWalls = append(res.trialWalls, m.Wall.Seconds())
		allOK = allOK && m.Err == nil
	}
	var text string
	if allOK {
		fid := tr.begin(spanReduce, bid, -1)
		t := time.Now()
		text = b.w.format(results)
		res.formatNs = time.Since(t).Nanoseconds()
		tr.end(fid)
	}
	var exportErr error
	if instrumented {
		eid := tr.begin(spanExport, bid, -1)
		t := time.Now()
		exportErr = col.WriteFiles()
		ob.FinishRun(b.w.name)
		res.exportNs = time.Since(t).Nanoseconds()
		tr.end(eid)
	}
	tr.end(bid)
	res.wall = time.Since(t0).Seconds()
	res.cpu = cpuSeconds() - cpu0
	res.slow = b.probe.end() / probeRefNs
	res.peakMB = peakRSSMB()
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcs = uint64(ms1.NumGC - ms0.NumGC)

	// Checks, outside the timed window.
	batchErr := exportErr
	if instrumented && batchErr == nil {
		var tf telemetryFiles
		tf, batchErr = validateTelemetry(dir)
		res.traceBytes, res.traceSpans = tf.TraceBytes, tf.Spans
	}
	if instrumented && batchErr == nil && ob.Violations() > 0 {
		batchErr = fmt.Errorf("%d watchdog violations", ob.Violations())
	}
	if allOK && batchErr == nil {
		if sum := sha256.Sum256([]byte(text)); b.firstText == ([32]byte{}) {
			b.firstText = sum
		} else if sum != b.firstText {
			batchErr = fmt.Errorf("report text differs from the first batch's")
		}
	}
	for i := range trials {
		err := trials[i].Err
		if err == nil {
			err = batchErr
		}
		b.record(i, results[i], err, instrumented)
	}
	return res
}

// instrument switches on the program's telemetry, 1-in-N packet spans and
// watchdogs for one run of the named workload. With a directory, the
// collector's export writes trace.json and metrics.json there and
// watchdog flight dumps land beside them; without one, nothing is
// written.
func instrument(run, dir string) (*telemetry.Collector, *obs.Observatory) {
	opts := telemetry.Options{RingCap: observedRingCap}
	flight := "-"
	if dir != "" {
		opts.TracePath = filepath.Join(dir, "trace.json")
		opts.MetricsPath = filepath.Join(dir, "metrics.json")
		flight = dir
	}
	col := telemetry.NewCollector(opts)
	ob := obs.New(obs.Options{SpanEvery: observedSpanEvery, Watchdogs: true, FlightDir: flight})
	ob.Attach(run, col)
	return col, ob
}

// telemetryFiles is what a validated telemetry export holds.
type telemetryFiles struct {
	TraceBytes int64 `json:"trace_bytes"`
	Spans      int64 `json:"spans"`
}

// validateTelemetry checks the files the instrumented batch wrote, in a
// child process (validateFiles) so that decoding the trace does not count
// in this process's peak resident memory.
func validateTelemetry(dir string) (telemetryFiles, error) {
	var tf telemetryFiles
	self, err := os.Executable()
	if err != nil {
		return tf, err
	}
	out, err := exec.Command(self, "--validate", dir).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return tf, fmt.Errorf("telemetry validation: %s", bytes.TrimSpace(ee.Stderr))
		}
		return tf, err
	}
	err = json.Unmarshal(out, &tf)
	return tf, err
}

// validateFiles checks an instrumented batch's export: the trace must pass
// the trace and packet-span schema checks and hold packet spans, and the
// metrics file must be JSON.
func validateFiles(dir string) (telemetryFiles, error) {
	var tf telemetryFiles
	trace, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		return tf, err
	}
	if err := telemetry.ValidateTrace(bytes.NewReader(trace)); err != nil {
		return tf, err
	}
	if err := obs.ValidateSpans(bytes.NewReader(trace)); err != nil {
		return tf, err
	}
	metrics, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		return tf, err
	}
	if !json.Valid(metrics) {
		return tf, fmt.Errorf("metrics.json is not valid JSON")
	}
	tf.TraceBytes = int64(len(trace))
	tf.Spans = int64(bytes.Count(trace, []byte(`"cat":"`+obs.SpanCat+`"`)))
	if tf.Spans == 0 {
		return tf, fmt.Errorf("trace holds no packet spans")
	}
	return tf, nil
}

// warmup runs one whole batch, untimed, so lazy initialisation,
// first-touch page faults and the growth of the program's pools stay out
// of the measured batches: after a warm-up of a single trial, the first
// measured batch of observed still ran a fifth more GC cycles than the
// batches after it. Its trials are checked like any others.
func (b *bench) warmup() { b.runBatch(nil, b.w.instrumented) }

// record counts one attempted trial and decides whether it failed: it
// errored or panicked, its result is implausible, or its digest differs
// from the golden digest or from an earlier repeat in this run.
func (b *bench) record(i int, r any, err error, instrumented bool) {
	b.attempted++
	if err == nil {
		err = sane(r)
	}
	if err == nil {
		d, first := digest(r), b.first[instrumented]
		switch {
		case b.golden != nil && instrumented == b.w.instrumented && d != b.golden[i]:
			err = fmt.Errorf("digest %s, golden %s", d, b.golden[i])
		case first[i] == "":
			first[i] = d
		case d != first[i]:
			err = fmt.Errorf("digest %s differs from an earlier repeat's %s", d, first[i])
		}
	}
	if err != nil {
		b.failed++
		if len(b.failures) < 10 {
			b.failures = append(b.failures, fmt.Sprintf("trial %d (%s): %v", i, b.w.specs[i].Proto, err))
		}
	}
}

// goodputSlack allows goodput measured over a window to exceed line rate
// by the out-of-order bytes a retransmission releases at once.
const goodputSlack = 1.1

// sane rejects results no correct simulation can produce.
func sane(r any) error {
	switch v := r.(type) {
	case exp.IncastPoint:
		if v.Rounds != incastCfg.Rounds {
			return fmt.Errorf("incast finished %d of %d rounds", v.Rounds, incastCfg.Rounds)
		}
		if v.Goodput <= 0 || v.Goodput > float64(incastCfg.Rate) {
			return fmt.Errorf("incast goodput %g outside (0, line rate]", v.Goodput)
		}
	case *exp.BenchmarkResult:
		if v.Flows == 0 {
			return fmt.Errorf("websearch generated no flows")
		}
	case exp.PermutationResult:
		k := fattreeCfg.K
		if v.Hosts != k*k*k/4 {
			return fmt.Errorf("fattree: %d hosts, want %d", v.Hosts, k*k*k/4)
		}
		if v.AggGoodput <= 0 || v.AggGoodput > goodputSlack*float64(v.Hosts)*float64(fattreeCfg.Rate) {
			return fmt.Errorf("fattree goodput %g outside (0, %d x line rate]", v.AggGoodput, v.Hosts)
		}
	case exp.RobustnessPoint:
		if v.Goodput < 0 || v.Goodput > goodputSlack*float64(exp.TestbedRate) {
			return fmt.Errorf("observed goodput %g outside [0, line rate]", v.Goodput)
		}
	default:
		return fmt.Errorf("unexpected result type %T", r)
	}
	return nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(err)
	}
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident memory (VmHWM), so that each batch reports its own peak.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fatal(fmt.Errorf("resetting peak RSS: %v", err))
	}
}

// peakRSSMB is this process's peak resident memory since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(kb), "kB")), 64)
			if err != nil {
				fatal(fmt.Errorf("VmHWM: %v", err))
			}
			return n / 1024
		}
	}
	fatal(fmt.Errorf("no VmHWM in /proc/self/status"))
	return 0
}

// metric names an output metric and its unit.
type metric struct{ name, unit string }

// e2eMetrics are the end-to-end metrics of an untraced run, each the
// median over its batches except ok_frac, which covers the whole run.
var e2eMetrics = []metric{
	{"wall_s", "s"}, {"setup_s", "s"}, {"sim_mevents_per_s", "Mevents/s"},
	{"cpu_s", "s"}, {"allocs_per_event", "count"}, {"alloc_bytes_per_event", "B"},
	{"gc_cycles", "count"}, {"peak_rss_mb", "MB"}, {"ok_frac", "ratio"},
}

func (b *bench) e2eRow(r batchResult) map[string]float64 {
	var build, sim int64
	for _, t := range r.trials {
		build += t.buildNs
		sim += t.simNs
	}
	events := r.events()
	return map[string]float64{
		"wall_s":                r.ref(r.wall),
		"setup_s":               r.ref(float64(build) / 1e9),
		"sim_mevents_per_s":     ratio(float64(events), r.ref(float64(sim))) * 1e3,
		"cpu_s":                 r.ref(r.cpu),
		"allocs_per_event":      ratio(float64(r.mallocs), float64(events)),
		"alloc_bytes_per_event": ratio(float64(r.bytes), float64(events)),
		"gc_cycles":             float64(r.gcs),
		"peak_rss_mb":           r.peakMB,
	}
}

// events is the batch's simulator event count.
func (r batchResult) events() uint64 {
	var n uint64
	for _, t := range r.trials {
		n += t.events
	}
	return n
}

// ref converts host time measured in the batch into reference-host time.
func (r batchResult) ref(host float64) float64 { return host / r.slow }

// transportModules maps each compared protocol to the package that
// implements its sender (TFC's lives in internal/core).
var transportModules = []struct {
	proto  exp.Proto
	module string
}{{exp.TFC, "core"}, {exp.TCP, "tcp"}, {exp.DCTCP, "dctcp"}, {exp.BFC, "bfc"}, {exp.TINYTCP, "tinytcp"}}

// layerMetrics are the per-layer metrics of a traced run.
var layerMetrics = func() []metric {
	ms := []metric{
		{"runner.trials", "count"}, {"runner.trial_p50_s", "s"}, {"runner.trial_max_s", "s"},
		{"runner.busy_frac", "ratio"},
		{"exp.build_s", "s"},
		{"netsim.compute_routes_s", "s"}, {"netsim.route_lookup_ns", "ns"},
		{"netsim.pkt_hops", "count"}, {"netsim.ns_per_pkt_hop", "ns"},
		{"netsim.allocs_per_pkt_hop", "count"}, {"netsim.drops", "count"},
		{"sim.events", "count"}, {"sim.run_s", "s"}, {"sim.ns_per_event", "ns"},
		{"sim.lane_dispatch_frac", "ratio"}, {"sim.group_epochs", "count"},
		{"sim.group_mail", "count"}, {"sim.group_barrier_frac", "ratio"},
		{"sim.shard_imbalance", "ratio"},
		{"workload.flows", "count"}, {"workload.done_frac", "ratio"}, {"workload.start_s", "s"},
	}
	for _, tm := range transportModules {
		ms = append(ms, metric{tm.module + ".ns_per_event", "ns"},
			metric{tm.module + ".rtx_frac", "ratio"}, metric{tm.module + ".timeouts", "count"})
	}
	return append(ms,
		metric{"stats.reduce_s", "s"},
		metric{"telemetry.overhead_frac", "ratio"}, metric{"telemetry.export_s", "s"},
		metric{"telemetry.trace_mb", "MB"}, metric{"telemetry.allocs_per_event", "count"},
		metric{"obs.spans", "count"},
		metric{"bench.trace_overhead_s", "s"},
		metric{"bench.host_wall_s", "s"}, metric{"bench.host_slowdown", "ratio"},
	)
}()

// layerRow derives the per-layer metrics of one iteration from its traced
// batch t, the untraced batch u run just before it, and, for an
// instrumented workload, the uninstrumented batch plain.
func (b *bench) layerRow(t, u batchResult, plain *batchResult) map[string]float64 {
	row := map[string]float64{}
	var (
		build, start, simNs, reduce, routes, lookupNs int64
		lookups, hops, drops                          int64
		events, heap, lane                            uint64
		flows, done, doneOf                           int
		epochs, mail                                  uint64
		barrierNs, windowNs, imbalance                float64
		sharded                                       int
	)
	type perProto struct {
		simNs, rtx, acked, timeouts int64
		events                      uint64
	}
	protos := map[exp.Proto]*perProto{}
	for i, m := range t.trials {
		build += m.buildNs
		start += m.startNs
		simNs += m.simNs
		reduce += m.reduceNs
		routes += m.routesNs
		lookupNs += m.lookupNs
		lookups += m.lookups
		hops += m.hops
		drops += m.drops
		events += m.events
		heap += m.heapDisp
		lane += m.laneDisp
		flows += m.flows
		done += m.done
		doneOf += m.doneOf
		if g := m.group; g != nil {
			epochs += g.Epochs
			mail += g.MailDelivered
			windowNs += float64(g.WindowNs) * float64(g.Shards)
			var maxEx, sumEx float64
			for _, sh := range g.PerShard {
				barrierNs += float64(sh.BarrierNs)
				sumEx += float64(sh.Executed)
				maxEx = max(maxEx, float64(sh.Executed))
			}
			imbalance += ratio(maxEx, sumEx/float64(len(g.PerShard)))
			sharded++
		}
		p := protos[b.w.specs[i].Proto]
		if p == nil {
			p = &perProto{}
			protos[b.w.specs[i].Proto] = p
		}
		p.simNs += m.simNs
		p.events += m.events
		p.rtx += m.rtxBytes
		p.acked += m.acked
		p.timeouts += m.timeout
	}
	walls := make([]float64, len(t.trialWalls))
	for i, w := range t.trialWalls {
		walls[i] = t.ref(w)
	}
	sort.Float64s(walls)
	var wallSum float64
	for _, w := range walls {
		wallSum += w
	}
	row["runner.trials"] = float64(len(walls))
	row["runner.trial_p50_s"] = median(walls)
	row["runner.trial_max_s"] = walls[len(walls)-1]
	row["runner.busy_frac"] = ratio(wallSum, t.ref(t.wall)*float64(b.w.workers))
	row["exp.build_s"] = t.ref(float64(build) / 1e9)
	row["netsim.compute_routes_s"] = t.ref(float64(routes) / 1e9)
	row["netsim.route_lookup_ns"] = t.ref(ratio(float64(lookupNs), float64(lookups)))
	row["netsim.pkt_hops"] = float64(hops)
	row["netsim.ns_per_pkt_hop"] = t.ref(ratio(float64(simNs), float64(hops)))
	row["netsim.allocs_per_pkt_hop"] = ratio(float64(u.mallocs), float64(hops))
	row["netsim.drops"] = float64(drops)
	row["sim.events"] = float64(events)
	row["sim.run_s"] = t.ref(float64(simNs) / 1e9)
	row["sim.ns_per_event"] = t.ref(ratio(float64(simNs), float64(events)))
	row["sim.lane_dispatch_frac"] = ratio(float64(lane), float64(heap+lane))
	row["sim.group_epochs"] = float64(epochs)
	row["sim.group_mail"] = float64(mail)
	row["sim.group_barrier_frac"] = ratio(barrierNs, windowNs)
	row["sim.shard_imbalance"] = ratio(imbalance, float64(sharded))
	row["workload.flows"] = float64(flows)
	row["workload.done_frac"] = ratio(float64(done), float64(doneOf))
	row["workload.start_s"] = t.ref(float64(start) / 1e9)
	for _, tm := range transportModules {
		p := protos[tm.proto]
		if p == nil {
			p = &perProto{}
		}
		row[tm.module+".ns_per_event"] = t.ref(ratio(float64(p.simNs), float64(p.events)))
		row[tm.module+".rtx_frac"] = ratio(float64(p.rtx), float64(p.acked))
		row[tm.module+".timeouts"] = float64(p.timeouts)
	}
	row["stats.reduce_s"] = t.ref(float64(reduce+t.formatNs) / 1e9)
	row["telemetry.export_s"] = t.ref(float64(t.exportNs) / 1e9)
	row["telemetry.trace_mb"] = float64(t.traceBytes) / 1e6
	row["obs.spans"] = float64(t.traceSpans)
	if plain != nil {
		row["telemetry.overhead_frac"] = ratio(u.ref(sumSim(u)), plain.ref(sumSim(*plain))) - 1
		row["telemetry.allocs_per_event"] = ratio(float64(u.mallocs)-float64(plain.mallocs), float64(events))
	}
	row["bench.trace_overhead_s"] = t.ref(t.wall) - u.ref(u.wall)
	row["bench.host_wall_s"] = t.wall
	row["bench.host_slowdown"] = t.slow
	return row
}

func sumSim(r batchResult) float64 {
	var ns int64
	for _, t := range r.trials {
		ns += t.simNs
	}
	return float64(ns)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medians reduces rows of per-batch values to one median per metric; a
// metric missing from a row (a layer that did no work) counts as 0.
func medians(rows []map[string]float64, ms []metric) map[string]metricVal {
	out := make(map[string]metricVal, len(ms))
	for _, m := range ms {
		vs := make([]float64, len(rows))
		for i, r := range rows {
			vs[i] = r[m.name]
		}
		sort.Float64s(vs)
		out[m.name] = metricVal{median(vs), m.unit}
	}
	return out
}

// goldenSeed is the default seed; golden.json holds the exp driver's
// per-trial digests for it.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

func loadGolden() map[string][]string {
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fatal(fmt.Errorf("golden.json: %w", err))
	}
	return g
}

// writeGolden computes every workload's per-trial digests at the golden
// seed through the exp driver functions, seeded as the runner pool seeds
// them, and writes them to path.
func writeGolden(path string) error {
	seed := int64(goldenSeed)
	g := map[string][]string{}
	for _, w := range workloads() {
		var col *telemetry.Collector
		if w.instrumented {
			col, _ = instrument(w.name, "")
		}
		pool := &runner.Pool{Parallelism: w.workers, BaseSeed: seed}
		rs, _, err := runner.Map(context.Background(), pool, len(w.specs), func(i int, s int64) (string, error) {
			return digest(w.driver(w.specs[i], s, col)), nil
		})
		if err != nil {
			return err
		}
		g[w.name] = rs
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
