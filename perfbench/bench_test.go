package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tfcsim/internal/exp"
	"tfcsim/internal/runner"
	"tfcsim/internal/telemetry"
)

// TestComposedMatchesDriver pins each composed trial to the exp driver
// function the tfcsim CLI runs: for the same config and seed, both must
// return the same typed result. The instrumented workload is checked with
// its telemetry, spans and watchdogs on, which must not change results.
func TestComposedMatchesDriver(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			idx := []int{0, len(w.specs) - 1}
			if testing.Short() {
				idx = idx[:1]
			}
			for _, i := range idx {
				seed := runner.DeriveSeed(7, i)
				tc := &trialCtx{}
				var col *telemetry.Collector
				if w.instrumented {
					tc.telemetry, _ = instrument(w.name, "")
					col, _ = instrument(w.name, "")
				}
				got, want := digest(w.run(tc, w.specs[i], seed)), digest(w.driver(w.specs[i], seed, col))
				if got != want {
					t.Errorf("trial %d (%+v): composed digest %s, driver digest %s", i, w.specs[i], got, want)
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
		}
		units := map[string]string{}
		for _, m := range printed {
			units[m.name] = m.unit
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, benchmark prints unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark defines %v", names, workloadNames())
	}
}

// TestTracedBatch runs a small traced batch on two workers: every trial
// must pass its checks, record its layer spans under its trial span, and
// leave no span open or with negative self time.
func TestTracedBatch(t *testing.T) {
	w := *workloadByName("incast")
	w.specs = w.specs[:4]
	b := newBench(&w, 3, t.TempDir())
	tr := newTracer()
	res := b.runBatch(tr, false)
	if b.failed != 0 || b.attempted != len(w.specs) {
		t.Fatalf("%d of %d trials failed: %v", b.failed, b.attempted, b.failures)
	}
	row := b.layerRow(res, b.runBatch(nil, false), nil)
	if row["runner.trials"] != 4 || row["sim.events"] == 0 || row["netsim.pkt_hops"] == 0 {
		t.Errorf("layer row: %v", row)
	}
	trials := map[int]bool{}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Name == spanRun && tr.spans[s.Parent-1].Name != spanTrial {
			t.Errorf("sim.run span %d has parent %q", s.ID, tr.spans[s.Parent-1].Name)
		}
		if s.Name == spanTrial {
			trials[s.Trial] = true
		}
	}
	if len(trials) != len(w.specs) {
		t.Errorf("trial spans for %d trials, want %d", len(trials), len(w.specs))
	}
	for name, self := range selfTimes(tr.spans) {
		if self < 0 {
			t.Errorf("self time of %s is %g", name, self)
		}
	}
}

// TestProbe drives the host-speed probe's protocol in process: a window
// that spans several sampling periods reads a positive kernel time, and
// so does one too short to hold a sample.
func TestProbe(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan struct{})
	go func() {
		serveProbe(inR, outW)
		close(done)
	}()
	out := bufio.NewReader(outR)
	window := func(d time.Duration) float64 {
		t.Helper()
		fmt.Fprintln(inW, "start")
		time.Sleep(d)
		fmt.Fprintln(inW, "stop")
		line, err := out.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		ns, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
		if err != nil || ns <= 0 {
			t.Fatalf("probe window read %q: %v", line, err)
		}
		return ns
	}
	window(5 * probeEvery)
	window(0)
	inW.Close()
	<-done
}

// TestCorrectnessGate checks that the gate fails trials it must fail: a
// digest differing from the golden one or from an earlier repeat, and a
// telemetry export whose trace no longer parses.
func TestCorrectnessGate(t *testing.T) {
	w := workloadByName("observed")
	dir := t.TempDir()
	col, _ := instrument(w.name, dir)
	tc := &trialCtx{telemetry: col}
	r := w.run(tc, w.specs[0], runner.DeriveSeed(goldenSeed, 0))
	if err := col.WriteFiles(); err != nil {
		t.Fatal(err)
	}
	tf, err := validateFiles(dir)
	if err != nil || tf.Spans == 0 || tf.TraceBytes == 0 {
		t.Fatalf("valid export: %+v, %v", tf, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), []byte(`{"traceEvents":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := validateFiles(dir); err == nil {
		t.Error("truncated trace passed validation")
	}

	b := newBench(w, goldenSeed, dir)
	b.record(0, r, nil, true)
	if b.failed != 0 {
		t.Fatalf("golden trial failed: %v", b.failures)
	}
	b.golden = nil
	other := r.(exp.RobustnessPoint)
	other.Events++
	b.record(0, other, nil, true)
	b.golden = make([]string, len(w.specs))
	b.record(1, r, nil, true)
	if b.failed != 2 || b.attempted != 3 {
		t.Errorf("failed %d of %d, want 2 of 3: %v", b.failed, b.attempted, b.failures)
	}
}
