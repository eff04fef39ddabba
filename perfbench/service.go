package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// daemon is one in-process rentmind server on a loopback listener.
type daemon struct {
	srv *server.Server
	hs  *httptest.Server
}

func startDaemon(cfg server.Config) *daemon {
	cfg.Logger = quietLog
	srv := server.New(cfg)
	return &daemon{srv: srv, hs: httptest.NewServer(srv)}
}

// close drains the daemon, waits for its in-flight requests and releases
// its solver pool.
func (d *daemon) close() {
	d.srv.BeginDrain()
	d.hs.Close()
	d.srv.Close()
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}}
}

// refused reports whether the daemon turned the request away (queue
// full, draining, or a deadline before any answer).
func refused(err error) bool {
	var api *client.APIError
	return errors.As(err, &api) && (api.StatusCode == http.StatusTooManyRequests ||
		api.StatusCode == http.StatusServiceUnavailable || api.StatusCode == http.StatusGatewayTimeout)
}

// serviceCfg sizes a service-mix workload.
type serviceCfg struct {
	rate       float64 // offered requests per second
	writeEvery int     // every writeEvery-th request is a session event
	sessions   int
	sessionGen rentmin.GenConfig
	readT3     int // Table 3 questions in the read cycle (the 20 targets, repeated)
	readFig3   int // Fig.3-scale instances in the read cycle, one paper target each
}

// The service-mix workload: one in five requests is a session event
// against one of twelve Fig.6-scale sessions, and four in five of the
// reads ask Table 3. The mix is an assumption, not taken from a trace.
// The offered rate is about a quarter of the daemon's capacity for this
// mix: `--saturate 8` measured 274 to 400 requests per second on seeds
// 1-5 (2-core box). At 80 requests per second up to 3% of reads wait for
// a worker lease; at 100, seeds with a slow session queue 15% of reads
// and latency_ms_p50 spreads half again as wide across seeds, and at 135
// it doubles between seeds. Every solve and re-solve is capped at
// serviceSolveLimit, so a rare instance that takes minutes to prove
// answers unproven instead of stalling the daemon.
const (
	serviceRate       = 80.0
	serviceLimit      = 100 * time.Millisecond
	serviceSolveLimit = time.Second
)

var serviceMixCfg = serviceCfg{
	rate: serviceRate, writeEvery: 5, sessions: 12, sessionGen: fig6Gen,
	readT3: 160, readFig3: 40,
}

// serviceBench drives one in-process daemon through client.Client with
// an open loop of stateless solves and session events.
type serviceBench struct {
	cfg      serviceCfg
	d        *daemon
	hc       *http.Client
	cl       *client.Client
	reads    []readItem
	sessions []*liveSession
	slot     int // next request slot; runs continue where the last stopped
}

// readItem is a stateless /v1/solve question, asked inline or, when hash
// is set, by problem_ref after one upload.
type readItem struct {
	item
	hash string
}

// liveSession is one daemon-side session with its cyclic event script.
type liveSession struct {
	initial *rentmin.Problem
	h       *client.Session
	script  []scriptEvent
	next    int            // script position of the next event
	applied []appliedEvent // every committed event in order, for the replay
}

// scriptEvent is one session event in its wire and library forms.
type scriptEvent struct {
	wire  client.SessionEvent
	local rentmin.SessionEvent
}

type appliedEvent struct {
	pos    int
	alloc  rentmin.Allocation
	proven bool
}

func newServiceMix(seed uint64) (bench, error) { return newService(seed, serviceMixCfg) }

func newService(seed uint64, cfg serviceCfg) (*serviceBench, error) {
	b := &serviceBench{cfg: cfg, hc: newHTTPClient()}
	b.d = startDaemon(server.Config{})
	b.cl = client.NewWithHTTPClient(b.d.hs.URL, b.hc)
	ctx := context.Background()
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()

	t3 := table3Items()
	var t3Reads []readItem
	for i := 0; i < cfg.readT3; i++ {
		t3Reads = append(t3Reads, readItem{item: t3[i%len(t3)]})
	}
	f3, err := familyItems(fig3Gen, seed, 'g', cfg.readFig3, paperTargets())
	if err != nil {
		return nil, err
	}
	var f3Reads []readItem
	for k, it := range f3 {
		rd := readItem{item: it}
		if k%2 == 1 { // every other instance goes by reference
			h, doc, err := client.ProblemHash(it.p)
			if err != nil {
				return nil, err
			}
			if err := b.cl.UploadProblem(ctx, h, doc); err != nil {
				return nil, fmt.Errorf("upload: %w", err)
			}
			rd.hash = h
		}
		f3Reads = append(f3Reads, rd)
	}
	b.reads = interleave(t3Reads, f3Reads)

	r := rand.New(rand.NewPCG(seed, 0x5e55))
	for i := 0; i < cfg.sessions; i++ {
		p, err := generate(cfg.sessionGen, seed, 'e', i)
		if err != nil {
			return nil, err
		}
		p.Target = paperTargets()[0] // the fleet comes up at the lowest target
		donor, err := generate(cfg.sessionGen, seed, 'f', i)
		if err != nil {
			return nil, err
		}
		s := &liveSession{initial: p, script: sessionScript(p, donor.App.Graphs[0], r)}
		s.h, _, err = b.cl.NewSession(ctx, p, &client.SessionOptions{TimeLimit: serviceSolveLimit})
		if err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		b.sessions = append(b.sessions, s)
	}

	// Warm-up: untimed Table 3 reads (answers are certified in the timed
	// run).
	for _, it := range spread(t3, 5) {
		_, _ = b.cl.Solve(ctx, it.p, nil)
	}
	ok = true
	return b, nil
}

func itemsOf(reads []readItem) []item {
	out := make([]item, len(reads))
	for i, r := range reads {
		out[i] = r.item
	}
	return out
}

// sessionScript builds a cycle of events that returns the session to its
// initial problem: a target change, a price change, a recipe arrival, an
// outage and restore of a type some recipe can do without, the arrival's
// departure, and the price and target changed back.
func sessionScript(p *rentmin.Problem, arrival rentmin.Graph, r *rand.Rand) []scriptEvent {
	ts := paperTargets()
	t0, t1 := p.Target, ts[r.IntN(len(ts))]
	if t1 == t0 {
		t1 = ts[(r.IntN(len(ts)-1)+1+indexOf(ts, t0))%len(ts)]
	}
	typ := r.IntN(p.NumTypes())
	oldPrice := p.Platform.Machines[typ].Cost
	newPrice := 1 + r.IntN(100)
	if newPrice == oldPrice {
		newPrice = oldPrice%100 + 1
	}
	graphs := append(append([]rentmin.Graph(nil), p.App.Graphs...), arrival)
	ev := []scriptEvent{
		{client.TargetChangeEvent(t1), rentmin.SessionEvent{Kind: rentmin.SessionTargetChange, Target: t1}},
		{client.PriceChangeEvent(typ, newPrice), rentmin.SessionEvent{Kind: rentmin.SessionPriceChange, Type: typ, Price: newPrice}},
		{client.RecipeArrivalEvent(arrival), rentmin.SessionEvent{Kind: rentmin.SessionRecipeArrival, Graph: &graphs[len(graphs)-1]}},
	}
	if off, ok := spareType(graphs, p.NumTypes(), r); ok {
		ev = append(ev,
			scriptEvent{client.OutageEvent(off), rentmin.SessionEvent{Kind: rentmin.SessionOutage, Type: off}},
			scriptEvent{client.RestoreEvent(off), rentmin.SessionEvent{Kind: rentmin.SessionRestore, Type: off}})
	}
	last := len(graphs) - 1
	return append(ev,
		scriptEvent{client.RecipeDepartureEvent(last), rentmin.SessionEvent{Kind: rentmin.SessionRecipeDeparture, GraphIndex: last}},
		scriptEvent{client.PriceChangeEvent(typ, oldPrice), rentmin.SessionEvent{Kind: rentmin.SessionPriceChange, Type: typ, Price: oldPrice}},
		scriptEvent{client.TargetChangeEvent(t0), rentmin.SessionEvent{Kind: rentmin.SessionTargetChange, Target: t0}})
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

// spareType picks a machine type that at least one graph does not use,
// so an outage of it leaves the session feasible.
func spareType(graphs []rentmin.Graph, numTypes int, r *rand.Rand) (int, bool) {
	var spare []int
	for q := 0; q < numTypes; q++ {
		for _, g := range graphs {
			if g.TypeCounts(numTypes)[q] == 0 {
				spare = append(spare, q)
				break
			}
		}
	}
	if len(spare) == 0 {
		return 0, false
	}
	return spare[r.IntN(len(spare))], true
}

// run offers requests on a fixed schedule from the run's start until the
// deadline, whatever the daemon's speed: reads are independent, and each
// session is a lane whose events go one at a time.
func (b *serviceBench) run(deadline time.Time, rec *opLog, tc *traceCtx) {
	start := time.Now()
	n := int(deadline.Sub(start).Seconds() * b.cfg.rate)
	interval := time.Duration(float64(time.Second) / b.cfg.rate)
	reqs := make([]request, n)
	for k := range reqs {
		slot := b.slot + k
		reqs[k].at = start.Add(time.Duration(k) * interval)
		if slot%b.cfg.writeEvery == b.cfg.writeEvery-1 {
			si := (slot / b.cfg.writeEvery) % len(b.sessions)
			reqs[k].lane = si
			reqs[k].send = func() (time.Time, error) { return b.event(si, b.sessions[si], rec, tc) }
		} else {
			rd := b.reads[(slot-slot/b.cfg.writeEvery)%len(b.reads)]
			reqs[k].lane = -1
			reqs[k].send = func() (time.Time, error) { return b.read(rd, rec, tc) }
		}
	}
	b.slot += n
	openLoop(reqs, rec)
}

// saturate asks the service-mix request sequence from callers concurrent
// closed-loop callers until the deadline, continuing the request slots
// where the last run stopped, and returns the completed requests per
// second: the daemon's capacity for this mix, from which the offered rate
// is derived. A caller that draws a session event waits for that
// session's previous event to return.
func (b *serviceBench) saturate(callers int, deadline time.Time, rec *opLog, tc *traceCtx) float64 {
	var mu sync.Mutex
	lanes := make([]sync.Mutex, len(b.sessions))
	next := func() int {
		mu.Lock()
		defer mu.Unlock()
		b.slot++
		return b.slot - 1
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				slot := next()
				t0 := time.Now()
				var done time.Time
				var err error
				if slot%b.cfg.writeEvery == b.cfg.writeEvery-1 {
					si := (slot / b.cfg.writeEvery) % len(b.sessions)
					lanes[si].Lock()
					done, err = b.event(si, b.sessions[si], rec, tc)
					lanes[si].Unlock()
				} else {
					done, err = b.read(b.reads[(slot-slot/b.cfg.writeEvery)%len(b.reads)], rec, tc)
				}
				rec.done(ms(done.Sub(t0)), err)
			}
		}()
	}
	wg.Wait()
	return float64(len(rec.lat)) / time.Since(rec.start).Seconds()
}

// request is one scheduled request of an open loop. send performs it,
// certifies the answer and returns when the answer arrived.
type request struct {
	at   time.Time // due time
	lane int       // requests of one lane >= 0 go one at a time; -1: independent
	send func() (time.Time, error)
}

// openLoop sends every request at its due time, each independent one on
// its own goroutine, and the requests of a lane in order, one at a time:
// a lane request due while its predecessor runs is sent when the
// predecessor returns. Every latency is timed from the due time, so a
// stall counts against the requests queued behind it; rec also gets how
// late the generator sent each request once it was free to.
func openLoop(reqs []request, rec *opLog) {
	lanes := make(map[int][]request)
	var free []request
	for _, r := range reqs {
		if r.lane < 0 {
			free = append(free, r)
		} else {
			lanes[r.lane] = append(lanes[r.lane], r)
		}
	}
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []request) {
			defer wg.Done()
			var prevDone time.Time
			for _, r := range lane {
				sleepUntil(r.at)
				ready := r.at
				if prevDone.After(ready) {
					ready = prevDone
				}
				rec.lagged(time.Since(ready))
				done, err := r.send()
				rec.done(ms(done.Sub(r.at)), err)
				prevDone = done
			}
		}(lane)
	}
	for _, r := range free {
		sleepUntil(r.at)
		rec.lagged(time.Since(r.at))
		wg.Add(1)
		go func(r request) {
			defer wg.Done()
			done, err := r.send()
			rec.done(ms(done.Sub(r.at)), err)
		}(r)
	}
	wg.Wait()
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// read asks one stateless solve and certifies the answer.
func (b *serviceBench) read(r readItem, rec *opLog, tc *traceCtx) (time.Time, error) {
	ctx := context.Background()
	opts := &client.Options{TimeLimit: serviceSolveLimit, Stats: tc != nil}
	var sp int64
	if tc != nil {
		sp = tc.tr.start(tc.tr.newTrace(), 0, "client.Solve")
	}
	t1 := time.Now()
	var sol *client.Solution
	var err error
	if r.hash != "" {
		sol, err = b.cl.SolveRef(ctx, r.hash, r.p.Target, opts)
	} else {
		sol, err = b.cl.Solve(ctx, r.p, opts)
	}
	done := time.Now()
	if tc != nil {
		tc.tr.end(sp)
	}
	tc.layer().ratio("server.refused_share", b2f(refused(err)), 1)
	if err != nil {
		return done, fmt.Errorf("%s: %w", r.key, err)
	}
	if err := r.check(sol.Allocation, sol.Bound, true, sol.Proven); err != nil {
		return done, err
	}
	if tc != nil && sol.Stats != nil {
		recordWireSolve(tc.lay, sol, done.Sub(t1))
	}
	return done, rec.answer(r.key, sol.Allocation.Cost, sol.Proven)
}

// recordWireSolve adds a /v1/solve answer's server and search counters.
func recordWireSolve(l *layerStats, sol *client.Solution, rtt time.Duration) {
	st := sol.Stats
	l.sample("server.queue_wait_ms_p50", st.QueueWaitMs)
	l.sample("server.queue_wait_ms_p99", st.QueueWaitMs)
	l.ratio("server.queued_share", b2f(st.QueueWaitMs >= queuedMs), 1)
	l.sample("server.overhead_ms", ms(rtt)-st.QueueWaitMs-st.SolveMs)
	for _, ph := range st.Phases {
		if ph.Name == "decode" {
			l.sample("server.decode_ms", ph.DurMs)
		}
	}
	red := 0
	if sol.Presolve != nil {
		red = sol.Presolve.RowsRemoved + sol.Presolve.ColsFixed + sol.Presolve.BoundsTightened + sol.Presolve.CoeffsReduced
	}
	recordMILP(l, sol.Nodes, time.Duration(sol.ElapsedMs*float64(time.Millisecond)), sol.LPIterations, sol.WarmLPSolves, sol.LPSolves, sol.Cuts, red)
	if len(st.Rounds) > 0 {
		l.sample("milp.root_ms", st.Rounds[0].AtMs)
	}
}

// queuedMs is the lease wait from which a read counts as queued: an
// uncontended lease is taken in microseconds.
const queuedMs = 0.1

// layer returns the per-layer accumulators, nil for an untraced run.
func (tc *traceCtx) layer() *layerStats {
	if tc == nil {
		return nil
	}
	return tc.lay
}

// event sends the session's next scripted event and certifies what it
// can before the replay: the same script position must always cost the
// same.
func (b *serviceBench) event(si int, s *liveSession, rec *opLog, tc *traceCtx) (time.Time, error) {
	ev := s.script[s.next]
	key := fmt.Sprintf("s%d/%d", si, s.next)
	var sp int64
	if tc != nil {
		sp = tc.tr.start(tc.tr.newTrace(), 0, "client.Session.Events")
	}
	t1 := time.Now()
	res, _, err := s.h.Events(context.Background(), ev.wire)
	done := time.Now()
	if tc != nil {
		tc.tr.end(sp)
	}
	tc.layer().ratio("server.refused_share", b2f(refused(err)), 1)
	switch {
	case err != nil:
		return done, fmt.Errorf("%s: %w", key, err)
	case len(res) != 1 || res[0].Error != "" || res[0].Allocation == nil:
		return done, fmt.Errorf("%s: event not applied: %+v", key, res)
	}
	r := res[0]
	proven := r.Status == "optimal"
	s.applied = append(s.applied, appliedEvent{pos: s.next, alloc: *r.Allocation, proven: proven})
	s.next = (s.next + 1) % len(s.script)
	rec.churned(r.Churn)
	if l := tc.layer(); l != nil {
		l.sample("session.resolve_ms_p50", r.SolveMs)
		l.sample("session.apply_overhead_ms", ms(done.Sub(t1))-r.SolveMs)
		l.ratio("session.warm_share", b2f(r.Warm), 1)
		l.ratio("session.root_lp_warm_share", b2f(r.RootLPWarm), 1)
		l.ratio("session.pivots_per_event", float64(r.LPIterations), 1)
		l.ratio("session.churn_per_event", float64(r.Churn), 1)
	}
	return done, rec.answer(key, r.Allocation.Cost, proven)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// finish replays every committed session event through rentmin.Session
// and checks each answer: feasible for the mutated problem at its
// target, priced right, clear of offline types and excluded graphs, and
// as cheap as a cold rentmin.Solve of the session's effective problem.
func (b *serviceBench) finish(rec *opLog) {
	cold := make(map[string]rentmin.Solution)
	for si, s := range b.sessions {
		if err := replay(si, s, cold); err != nil {
			rec.fail(err)
		}
	}
	if err := recordRefs(rec, distinct(itemsOf(b.reads))); err != nil {
		rec.fail(err)
	}
}

// distinct drops repeated questions.
func distinct(items []item) []item {
	seen := make(map[string]bool)
	var out []item
	for _, it := range items {
		if !seen[it.key] {
			seen[it.key] = true
			out = append(out, it)
		}
	}
	return out
}

// replay re-applies one session's committed events to a rentmin.Session
// and checks each committed answer; cold caches the cold solves by
// effective problem.
func replay(si int, s *liveSession, cold map[string]rentmin.Solution) error {
	ctx := context.Background()
	rs, _, err := rentmin.NewSession(ctx, s.initial, &rentmin.SessionOptions{Workers: 1, TimeLimit: oracleLimit})
	if err != nil {
		return fmt.Errorf("session %d replay: %w", si, err)
	}
	defer rs.Close()
	for n, a := range s.applied {
		if _, err := rs.Apply(ctx, s.script[a.pos].local); err != nil {
			return fmt.Errorf("session %d replay of event %d: %w", si, n, err)
		}
		full := rs.Problem()
		if err := certify(full, rentmin.NewCostModel(full), a.alloc, 0, false, false); err != nil {
			return fmt.Errorf("session %d event %d: %w", si, n, err)
		}
		eff, live := rs.EffectiveProblem()
		if err := certifyLive(a.alloc, rs.State().Offline, live); err != nil {
			return fmt.Errorf("session %d event %d (%s): %w", si, n, s.script[a.pos].local.Kind, err)
		}
		hash, _, err := client.ProblemHash(eff)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("%s/%d", hash, eff.Target)
		want, ok := cold[key]
		if !ok {
			want, err = rentmin.Solve(eff, &rentmin.SolveOptions{Workers: 1, TimeLimit: oracleLimit})
			if err != nil {
				return fmt.Errorf("session %d event %d: cold solve: %w", si, n, err)
			}
			cold[key] = want
		}
		if err := agree(a.alloc.Cost, a.proven, want); err != nil {
			return fmt.Errorf("session %d event %d (%s) against a cold solve: %w", si, n, s.script[a.pos].local.Kind, err)
		}
	}
	return nil
}

func (b *serviceBench) passKeys() []string {
	keys := itemKeys(distinct(itemsOf(b.reads)))
	for si, s := range b.sessions {
		for pos := range s.script {
			keys = append(keys, fmt.Sprintf("s%d/%d", si, pos))
		}
	}
	return keys
}

func (b *serviceBench) probeItems() []item { return spread(itemsOf(b.reads), 12) }

func (b *serviceBench) close() {
	b.d.close()
	b.hc.CloseIdleConnections()
}
