package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// fleetCfg sizes a fleet-batch workload.
type fleetCfg struct {
	fig3  int // Fig.3-scale instances, each at one paper target in turn
	batch int // items per /v1/batch request
}

// A fleet-batch pass holds 820 problems, enough that a seed's few slow
// instances weigh little: a batch returns when its slowest item does, so
// with 400 the throughput spread across seeds was twice as wide. Items go
// to whichever worker is free, so each worker sees the whole pass; its
// problem cache holds fleetWorkerCache entries, sized to the pass, so a
// problem is uploaded at most once to each worker and later dispatches go
// by reference (pool.ref_hit_share 0.73 in seed 1's traced half). At the
// default 256 entries a pass of 820 evicts each problem before it comes
// round again, and the share fell to 0.02.
const fleetWorkerCache = 1024

var fleetBatchCfg = fleetCfg{fig3: 800, batch: 32}

// fleetBatchLimit is the time limit of every batch request, and the
// workload's latency limit: a rare instance that takes minutes to prove
// stops there with its best allocation instead of holding the run.
const fleetBatchLimit = 2 * time.Second

// fleetBench sends /v1/batch requests to a coordinator daemon whose
// solver pool is a fleet of two one-worker daemons on loopback.
type fleetBench struct {
	cfg     fleetCfg
	workers []*daemon
	coord   *daemon
	fleet   *rentmin.SolverPool
	hc      *http.Client
	cl      *client.Client
	items   []item
	next    int
}

func newFleetBatch(seed uint64) (bench, error) { return newFleet(seed, fleetBatchCfg) }

func newFleet(seed uint64, cfg fleetCfg) (*fleetBench, error) {
	f3, err := familyItems(fig3Gen, seed, 'h', cfg.fig3, paperTargets())
	if err != nil {
		return nil, err
	}
	b := &fleetBench{cfg: cfg, items: interleave(table3Items(), f3), hc: newHTTPClient()}
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()
	var urls []string
	for i := 0; i < 2; i++ {
		d := startDaemon(server.Config{Workers: 1, ProblemCacheSize: fleetWorkerCache})
		b.workers = append(b.workers, d)
		urls = append(urls, d.hs.URL)
	}
	ctx := context.Background()
	b.fleet, err = client.NewFleet(ctx, urls, &client.FleetConfig{HTTPClient: b.hc, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	b.coord = startDaemon(server.Config{SolverPool: b.fleet})
	b.cl = client.NewWithHTTPClient(b.coord.hs.URL, b.hc)
	// Warm-up: one untimed batch of Table 3 (answers are certified in the
	// timed run).
	if _, err := b.cl.SolveBatch(ctx, problemsOf(table3Items()), nil); err != nil {
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	ok = true
	return b, nil
}

func problemsOf(items []item) []*rentmin.Problem {
	ps := make([]*rentmin.Problem, len(items))
	for i, it := range items {
		ps[i] = it.p
	}
	return ps
}

// run sends one batch at a time, cycling through the items, until the
// deadline has passed and every item has been asked. Each item's latency
// is its batch's round trip.
func (b *fleetBench) run(deadline time.Time, rec *opLog, tc *traceCtx) {
	ctx := context.Background()
	var before fleetCounters
	if tc != nil {
		before = b.counters(ctx)
	}
	var prevEnd time.Time
	for asked := 0; asked < len(b.items) || time.Now().Before(deadline); asked += b.cfg.batch {
		batch := make([]item, b.cfg.batch)
		for i := range batch {
			batch[i] = b.items[(b.next+i)%len(b.items)]
		}
		b.next = (b.next + len(batch)) % len(b.items)
		t0 := time.Now()
		if !prevEnd.IsZero() {
			rec.lagged(t0.Sub(prevEnd))
		}
		var sp int64
		if tc != nil {
			sp = tc.tr.start(tc.tr.newTrace(), 0, "client.SolveBatch")
		}
		sols, err := b.cl.SolveBatch(ctx, problemsOf(batch), &client.Options{TimeLimit: fleetBatchLimit, Stats: tc != nil})
		prevEnd = time.Now()
		if tc != nil {
			tc.tr.end(sp)
		}
		lat := ms(prevEnd.Sub(t0))
		for i, it := range batch {
			if err != nil {
				rec.done(lat, fmt.Errorf("%s: %w", it.key, err))
				continue
			}
			rec.done(lat, b.checkItem(it, &sols[i], rec, tc))
		}
	}
	if tc != nil {
		b.recordPool(tc.lay, before, b.counters(ctx))
	}
}

func (b *fleetBench) checkItem(it item, sol *client.Solution, rec *opLog, tc *traceCtx) error {
	if sol.Error != "" {
		return fmt.Errorf("%s: %s", it.key, sol.Error)
	}
	if err := it.check(sol.Allocation, sol.Bound, true, sol.Proven); err != nil {
		return err
	}
	if err := rec.answer(it.key, sol.Allocation.Cost, sol.Proven); err != nil {
		return err
	}
	if tc != nil && sol.Stats != nil {
		tc.lay.sample("pool.dispatch_overhead_ms", sol.Stats.SolveMs-sol.ElapsedMs)
	}
	return nil
}

// fleetCounters is a snapshot of the fleet's dispatch and upload counts.
type fleetCounters struct {
	dispatched, faults int64
	succeeded          []int64 // per worker
	uploads, solves    int64   // summed over the workers' /metrics
}

func (b *fleetBench) counters(ctx context.Context) fleetCounters {
	var c fleetCounters
	for _, w := range b.fleet.WorkerStats() {
		c.dispatched += w.Dispatched
		c.faults += w.Faults
		c.succeeded = append(c.succeeded, w.Succeeded)
	}
	for _, d := range b.workers {
		text, err := client.NewWithHTTPClient(d.hs.URL, b.hc).Metrics(ctx)
		if err != nil {
			continue // a missing scrape leaves the ratio to the other worker
		}
		c.uploads += scrape(text, "rentmind_problem_uploads_total")
		c.solves += scrape(text, "rentmind_solves_total")
	}
	return c
}

// scrape reads one unlabelled counter from a /metrics page.
func scrape(text, name string) int64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64) // a malformed line reads as 0
			return int64(v)
		}
	}
	return 0
}

// recordPool adds the fleet's dispatch metrics over the traced run.
func (b *fleetBench) recordPool(l *layerStats, before, after fleetCounters) {
	l.ratio("pool.fault_share", float64(after.faults-before.faults), float64(after.dispatched-before.dispatched))
	solves := after.solves - before.solves
	l.ratio("pool.ref_hit_share", float64(solves-(after.uploads-before.uploads)), float64(solves))
	lo, hi := int64(-1), int64(0)
	for i := range after.succeeded {
		d := after.succeeded[i]
		if i < len(before.succeeded) {
			d -= before.succeeded[i]
		}
		if lo < 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi > 0 {
		l.set("pool.balance", float64(lo)/float64(hi))
	}
	var p50, p99 float64
	var n int
	for _, w := range b.fleet.WorkerStats() {
		if w.RTTSamples > 0 {
			p50 += w.RTTp50Ms
			p99 += w.RTTp99Ms
			n++
		}
	}
	if n > 0 {
		l.set("pool.dispatch_rtt_ms_p50", p50/float64(n))
		l.set("pool.dispatch_rtt_ms_p99", p99/float64(n))
	}
}

// finish checks every answered item against an in-process rentmin.Solve
// of the same problem (the oracle runs after the timed run, so set-up
// time measures the fleet's start-up rather than the oracle).
func (b *fleetBench) finish(rec *opLog) {
	for _, it := range b.items {
		got, proven, ok := rec.costOf(it.key)
		if !ok {
			continue
		}
		sol, err := rentmin.Solve(it.p, &rentmin.SolveOptions{Workers: 1, TimeLimit: oracleLimit})
		if err == nil {
			err = agree(got, proven, sol)
		}
		if err != nil {
			rec.fail(fmt.Errorf("%s: fleet answer against an in-process solve: %w", it.key, err))
		}
	}
	if err := recordRefs(rec, b.items); err != nil {
		rec.fail(err)
	}
}

func (b *fleetBench) passKeys() []string { return itemKeys(b.items) }
func (b *fleetBench) probeItems() []item { return spread(b.items, 12) }

func (b *fleetBench) close() {
	if b.coord != nil {
		b.coord.close() // closes the fleet pool too
	} else if b.fleet != nil {
		b.fleet.Close()
	}
	for _, d := range b.workers {
		d.close()
	}
	b.hc.CloseIdleConnections()
}
