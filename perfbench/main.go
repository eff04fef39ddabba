// Command perfbench is rentmin's end-to-end benchmark. It runs one named
// workload against rentmin's public entry points for a fixed time,
// certifies every answer it timed, and prints every metric by name and
// unit; the last line of its output is one JSON object.
//
//	go run . --workload paper-sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it instead reports per-layer metrics: it runs the
// workload once untraced and once with spans around every call into a
// layer, then probes the layers the workload does not reach, and writes
// the spans to a file. --workload all runs every workload in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name  string
	loop  string        // closed loop with its caller count, or open loop with its rate
	limit time.Duration // latency limit of goodput_rps
	setup func(seed uint64) (bench, error)
}

var workloads = []workload{
	{"paper-sweep", "closed loop, 1 caller", sweepTimeLimit, newPaperSweep},
	{"deep-tree", fmt.Sprintf("closed loop, 1 caller, %d-node cap", deepNodeLimit), 5 * time.Second, newDeepTree},
	{"service-mix", fmt.Sprintf("open loop, %g req/s", serviceRate), serviceLimit, newServiceMix},
	{"fleet-batch", "closed loop, 1 caller", fleetBatchLimit, newFleetBatch},
}

// setups is how many times an untraced run sets its workload up;
// setup_s is the median.
const setups = 5

// quietLog is the logger every daemon the benchmark starts uses: log
// lines are still formatted, but not written to the terminal.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	spans := flag.String("spans", "", "spans file of a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	saturate := flag.Int("saturate", 0, "N > 0: measure the daemon's capacity for service-mix with N closed-loop callers instead")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	run := time.Duration(*seconds * float64(time.Second))
	if *saturate > 0 {
		if err := capacityRun(*seed, run, *saturate); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: capacity: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, w := range selected {
		var res result
		var err error
		if *trace == 1 {
			path := *spans
			if path == "" {
				path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
			}
			res, err = tracedRun(w, *seed, run, path)
		} else {
			res, err = endToEndRun(w, *seed, run)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// endToEndRun sets the workload up several times, measures it untraced,
// certifies it and returns the end-to-end metrics.
func endToEndRun(w workload, seed uint64, run time.Duration) (result, error) {
	var setupS []float64
	var b bench
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		nb, err := w.setup(seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			nb.close()
		} else {
			b = nb
		}
	}
	defer b.close()

	// Drop the earlier set-ups' garbage so the memory peak is the run's.
	runtime.GC()
	debug.FreeOSMemory()
	stopRSS := rssPeak()
	rec := newOpLog(w.limit)
	b.run(rec.start.Add(run), rec, nil)
	elapsed := time.Since(rec.start).Seconds()
	peakRSS := stopRSS()
	b.finish(rec)
	keys := b.passKeys()
	pass, passOK := rec.pass(keys)
	if !passOK {
		rec.fail(fmt.Errorf("run answered only part of a pass"))
	}

	lat := sortedCopy(rec.lat)
	thr := rec.windowRate()
	vals := map[string]float64{
		"setup_s":           median(setupS),
		"throughput_ops_s":  thr,
		"latency_ms_p50":    quantile(lat, 0.5),
		"goodput_rps":       thr * float64(rec.good) / float64(max(rec.attempted, 1)),
		"proven_share":      float64(pass.proven) / float64(len(keys)),
		"rental_cost_ratio": pass.ratio,
		"peak_rss_mb":       peakRSS,
	}
	res := result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s is not a number (%v)", m.name, v)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}

	fmt.Printf("workload %s (%s, latency limit %v), seed %d, %.1f s measured, %d operations\n",
		w.name, w.loop, w.limit, seed, elapsed, len(rec.lat))
	for _, m := range endToEnd {
		fmt.Printf("  %-18s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	// Reported where they apply, outside the gated set.
	for _, q := range []float64{0.9, 0.99} {
		if tailOK(len(lat), q) {
			fmt.Printf("  %-18s %14.4f ms (%d samples)\n", fmt.Sprintf("latency_ms_p%d", int(q*100)), quantile(lat, q), len(lat))
		} else {
			fmt.Printf("  %-18s %14s    (%d samples: fewer than %d beyond it)\n", fmt.Sprintf("latency_ms_p%d", int(q*100)), "n/a", len(lat), minTail)
		}
	}
	fmt.Printf("  %-18s %14d cost (%d questions)\n", "rental_cost_sum", pass.cost, len(keys))
	fmt.Printf("  %-18s %14.4f share (%d of %d)\n", "error_share", float64(rec.failed)/float64(max(rec.attempted, 1)), rec.failed, rec.attempted)
	if rec.events > 0 {
		fmt.Printf("  %-18s %14.4f moves (%d events)\n", "churn_per_event", float64(rec.churn)/float64(rec.events), rec.events)
	}
	printProblems(rec)
	return res, nil
}

// tracedRun sets the workload up once, measures it for half the run
// untraced and half traced, probes the layers it did not reach, writes
// the spans and returns the per-layer metrics.
func tracedRun(w workload, seed uint64, run time.Duration, spansPath string) (result, error) {
	b, err := w.setup(seed)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()

	plain := newOpLog(w.limit)
	b.run(plain.start.Add(run/2), plain, nil)
	plainThr := plain.windowRate()

	tc := &traceCtx{tr: newTracer(), lay: newLayerStats()}
	rec := newOpLog(w.limit)
	b.run(rec.start.Add(run/2), rec, tc)
	tracedThr := rec.windowRate()
	b.finish(rec)
	for _, l := range rec.lag {
		tc.lay.sample("loadgen.lag_ms_p99", l)
	}
	// Per-operation latency, not throughput: an open loop completes its
	// offered rate whatever tracing costs.
	plainP50, tracedP50 := quantile(sortedCopy(plain.lat), 0.5), quantile(sortedCopy(rec.lat), 0.5)
	tc.lay.set("trace.overhead_share", tracedP50/plainP50-1)
	if plain.failed > 0 {
		rec.mu.Lock()
		rec.attempted += plain.attempted
		rec.failed += plain.failed
		rec.problems = append(rec.problems, plain.problems...)
		rec.mu.Unlock()
	}

	toured, err := tour(b, seed, tc, rec)
	if err != nil {
		return result{}, fmt.Errorf("layer tour: %w", err)
	}
	if err := tc.tr.write(spansPath); err != nil {
		return result{}, err
	}

	res := result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metric{}}
	fmt.Printf("workload %s (%s), seed %d, traced run; spans in %s\n", w.name, w.loop, seed, spansPath)
	fmt.Printf("  untraced %.2f ops/s, latency p50 %.3f ms; traced %.2f ops/s, latency p50 %.3f ms\n", plainThr, plainP50, tracedThr, tracedP50)
	sort.Strings(toured)
	fromTour := make(map[string]bool)
	for _, n := range toured {
		fromTour[n] = true
	}
	for _, m := range perLayer {
		v, q, n, ok := tc.lay.value(m)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("no measurement for %s", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
		note := ""
		if m.agg == aggP99 && q < 0.99 {
			note = fmt.Sprintf(" [p%.0f: %d samples]", q*100, n)
		}
		if fromTour[m.name] {
			note += " (layer tour)"
		}
		fmt.Printf("  %-36s %14.4f %-5s moves %s%s\n", m.name, v, m.unit, m.moves, note)
	}
	fmt.Println("  spans by self time:")
	for _, s := range tc.tr.summarize() {
		fmt.Printf("    %-24s %7d spans %12.3f ms total %12.3f ms self\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
	printProblems(rec)
	return res, nil
}

func printProblems(rec *opLog) {
	for _, p := range rec.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

// capacityRun measures how many service-mix requests per second the
// daemon completes when callers closed-loop callers keep it busy: a half
// run untraced for the rate, then a half run traced for the lease waits.
// serviceRate is a share of this figure.
func capacityRun(seed uint64, run time.Duration, callers int) error {
	b, err := newService(seed, serviceMixCfg)
	if err != nil {
		return err
	}
	defer b.close()
	rec := newOpLog(serviceLimit)
	rate := b.saturate(callers, rec.start.Add(run/2), rec, nil)
	tc := &traceCtx{tr: newTracer(), lay: newLayerStats()}
	trec := newOpLog(serviceLimit)
	b.saturate(callers, trec.start.Add(run/2), trec, tc)
	b.finish(rec)
	lat := sortedCopy(rec.lat)
	fmt.Printf("service-mix capacity, seed %d, %d callers: %.1f req/s (%d requests, %d failed), latency p50 %.2f ms\n",
		seed, callers, rate, rec.attempted, rec.failed+trec.failed, quantile(lat, 0.5))
	for _, name := range []string{"server.queued_share", "server.queue_wait_ms_p50", "server.queue_wait_ms_p99"} {
		for _, m := range perLayer {
			if m.name == name {
				v, _, n, _ := tc.lay.value(m)
				fmt.Printf("  %-26s %10.4f %s (%d reads, traced)\n", name, v, m.unit, n)
			}
		}
	}
	printProblems(rec)
	printProblems(trec)
	return nil
}
