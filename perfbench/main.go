// Command tfcbench is the tfcsim benchmark. It runs one paper-derived
// workload as a closed batch of trials, repeats the batch for a fixed
// wall-clock budget, checks every trial's result, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	python3 perfbench/run.py --workload incast --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics, and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", goldenSeed, "workload seed; trial seeds derive from it")
		seconds = flag.Float64("seconds", 20, "wall-clock budget for the measured batches")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		outDir  = flag.String("out-dir", ".bench_build/out", "directory for spans files and telemetry scratch files")
		golden  = flag.String("write-golden", "", "write the golden seed's per-trial digests, computed by the exp driver, to this file and exit")
		check   = flag.String("validate", "", "validate the telemetry files in this directory, print their sizes and exit (used by the observed workload)")
		probe   = flag.Bool("probe", false, "serve the host-speed probe on standard input and output (used by every run)")
	)
	flag.Parse()
	if *probe {
		serveProbe(os.Stdin, os.Stdout)
		return
	}
	if *check != "" {
		tf, err := validateFiles(*check)
		if err != nil {
			fatal(err)
		}
		line, _ := json.Marshal(tf)
		fmt.Println(string(line))
		return
	}
	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fatal(err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	var defs []*workloadDef
	if *name == "all" {
		defs = workloads()
	} else if w := workloadByName(*name); w != nil {
		defs = []*workloadDef{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q (want %s or all)", *name, strings.Join(workloadNames(), ", ")))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	total := result{Correct: true, Metrics: map[string]metricVal{}}
	for _, w := range defs {
		b := newBench(w, *seed, *outDir)
		b.probe = startProbe()
		man := b.manifest(*seconds, *traced == 1)
		line, err := json.Marshal(man)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("manifest %s\n", line)
		var ms map[string]metricVal
		if *traced == 1 {
			ms = b.traced(*seconds)
		} else {
			ms = b.endToEnd(*seconds)
		}
		b.probe.close()
		for _, f := range b.failures {
			fmt.Fprintf(os.Stderr, "tfcbench: %s: FAIL %s\n", w.name, f)
		}
		total.Attempted += b.attempted
		total.Failed += b.failed
		total.Correct = total.Correct && b.failed == 0
		for k, v := range ms {
			if len(defs) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = v
			fmt.Fprintf(os.Stderr, "%-10s %-28s %14.6g %s\n", w.name, k, v.Value, v.Unit)
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tfcbench:", err)
	liveProbe.close()
	os.Exit(2)
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// manifest records what a result was measured on and with.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Commit     string  `json:"commit"`
	Tree       string  `json:"source_digest"`
	Workers    int     `json:"workers"`
	Trials     int     `json:"trials_per_batch"`
	Params     any     `json:"params"`
}

func (b *bench) manifest(seconds float64, traced bool) manifest {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return manifest{
		Workload: b.w.name, Seed: b.seed, Seconds: seconds, Traced: traced,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		Commit: envOr("TFCBENCH_COMMIT", "unknown"), Tree: envOr("TFCBENCH_TREE", "unknown"),
		Workers: b.w.workers, Trials: len(b.w.specs), Params: b.w.params,
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

// minIters is the fewest measured iterations a run makes, whatever its
// budget, so every reported median has at least three samples.
const minIters = 3

// loop runs iter until the budget is spent, stopping early when one more
// iteration would overrun it.
func loop(seconds float64, iter func()) {
	t0 := time.Now()
	for i := 1; ; i++ {
		t1 := time.Now()
		iter()
		last := time.Since(t1).Seconds()
		if i >= minIters && time.Since(t0).Seconds()+last > seconds {
			return
		}
	}
}

// endToEnd measures the workload untraced and reports the median of each
// end-to-end metric over the batches.
func (b *bench) endToEnd(seconds float64) map[string]metricVal {
	b.warmup()
	var rows []map[string]float64
	loop(seconds, func() {
		r := b.runBatch(nil, b.w.instrumented)
		fmt.Fprintf(os.Stderr, "tfcbench: %s: batch %d: %.3f s host wall, host slowdown %.3f, %.3f s reference wall, %d events, %d GC cycles, %.1f MB peak RSS\n",
			b.w.name, len(rows)+1, r.wall, r.slow, r.ref(r.wall), r.events(), r.gcs, r.peakMB)
		rows = append(rows, b.e2eRow(r))
	})
	for _, r := range rows {
		r["ok_frac"] = 1 - float64(b.failed)/float64(b.attempted)
	}
	return medians(rows, e2eMetrics)
}

// traced alternates an untraced and a traced batch (plus, when the
// workload is instrumented, an uninstrumented one), reports the median
// of each per-layer metric, and writes the traced batches' spans.
func (b *bench) traced(seconds float64) map[string]metricVal {
	b.warmup()
	tr := newTracer()
	var rows []map[string]float64
	loop(seconds, func() {
		u := b.runBatch(nil, b.w.instrumented)
		t := b.runBatch(tr, b.w.instrumented)
		var plain *batchResult
		if b.w.instrumented {
			p := b.runBatch(nil, false)
			plain = &p
		}
		rows = append(rows, b.layerRow(t, u, plain))
	})
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed))
	if err := writeSpans(path, b, tr); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tfcbench: %s: spans written to %s\n", b.w.name, path)
	return medians(rows, layerMetrics)
}

func writeSpans(path string, b *bench, tr *tracer) error {
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{b.w.name, b.seed, selfTimes(tr.spans), tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
