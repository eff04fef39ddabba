package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"testing"
	"time"

	"rentmin"
	"rentmin/client"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990: 10 samples beyond
		{999, 0.99, false}, // rank 990: 9 beyond
		{100, 0.9, true},
		{99, 0.9, false},
		{20, 0.5, true},
		{19, 0.5, false},
	}
	for _, c := range cases {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, q := tailQuantile(xs, 0.99)
	if q != 0.95 || v != 190 {
		t.Errorf("tailQuantile over 200 samples = %v at q=%v, want 190 at q=0.95", v, q)
	}
	if tail := len(xs) - int(v); tail < minTail {
		t.Errorf("%d samples beyond the reported percentile, want at least %d", tail, minTail)
	}
	v, q = tailQuantile(xs[:5], 0.99) // 5 samples: falls back to the median
	if q != 0.5 || v != 3 {
		t.Errorf("tailQuantile over 5 samples = %v at q=%v, want the median 3", v, q)
	}
}

// The open loop times every request from its due time: a stalled lane
// request delays its successor, and the successor's latency shows the
// wait, while an independent request due at the same time does not.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	start := time.Now().Add(10 * time.Millisecond)
	instant := func() (time.Time, error) { return time.Now(), nil }
	reqs := []request{
		{at: start, lane: 0, send: func() (time.Time, error) {
			time.Sleep(stall)
			return time.Now(), nil
		}},
		{at: start.Add(10 * time.Millisecond), lane: 0, send: instant},
		{at: start.Add(10 * time.Millisecond), lane: -1, send: instant},
	}
	rec := newOpLog(time.Second)
	openLoop(reqs, rec)
	if len(rec.lat) != 3 {
		t.Fatalf("%d latencies recorded, want 3", len(rec.lat))
	}
	var behindStall, independent int
	for _, l := range rec.lat {
		switch {
		case l >= ms(stall):
			// The stalled request itself.
		case l >= ms(stall-10*time.Millisecond):
			behindStall++
		case l < ms(stall)/2:
			independent++
		}
	}
	if behindStall != 1 || independent != 1 {
		t.Errorf("latencies %v: want one request delayed by the stall and one unaffected", rec.lat)
	}
	for _, g := range rec.lag {
		if g > ms(stall)/2 {
			t.Errorf("generator lag %.2f ms: a request held back by its lane is not late", g)
		}
	}
}

// A refused or failed request counts as failed and never as goodput.
func TestOpenLoopCountsFailures(t *testing.T) {
	now := time.Now()
	fail := func(err error) func() (time.Time, error) {
		return func() (time.Time, error) { return time.Now(), err }
	}
	reqs := []request{
		{at: now, lane: -1, send: fail(errors.New("wrong answer"))},
		{at: now, lane: -1, send: fail(fmt.Errorf("solve: %w", &client.APIError{StatusCode: http.StatusTooManyRequests}))},
		{at: now, lane: -1, send: fail(nil)},
	}
	rec := newOpLog(time.Second)
	openLoop(reqs, rec)
	if rec.attempted != 3 || rec.failed != 2 || rec.good != 1 {
		t.Errorf("attempted %d, failed %d, good %d; want 3, 2, 1", rec.attempted, rec.failed, rec.good)
	}
}

func table3Answer(t *testing.T, target int) (*rentmin.Problem, *rentmin.CostModel, rentmin.Solution) {
	t.Helper()
	p := rentmin.IllustratingExample()
	p.Target = target
	sol, err := rentmin.Solve(p, &rentmin.SolveOptions{Workers: 1})
	if err != nil || !sol.Proven {
		t.Fatalf("solve: %v (proven %v)", err, sol.Proven)
	}
	return p, rentmin.NewCostModel(p), sol
}

func TestCertifierAcceptsOptimalAnswer(t *testing.T) {
	p, m, sol := table3Answer(t, 70)
	if err := certify(p, m, sol.Alloc, sol.Bound, true, true); err != nil {
		t.Fatalf("optimal answer rejected: %v", err)
	}
	if sol.Alloc.Cost != table3Costs[6] {
		t.Errorf("cost %d at rho=70, Table III says %d", sol.Alloc.Cost, table3Costs[6])
	}
}

func TestCertifierRejectsUnderTarget(t *testing.T) {
	p, m, sol := table3Answer(t, 70)
	rho := append([]int(nil), sol.Alloc.GraphThroughput...)
	for j := range rho {
		if rho[j] > 0 {
			rho[j]--
			break
		}
	}
	short := m.NewAllocation(rho) // priced right, one unit short
	if err := certify(p, m, short, 0, false, false); err == nil {
		t.Error("allocation below the target accepted")
	}
}

func TestCertifierRejectsMispricedAllocation(t *testing.T) {
	p, m, sol := table3Answer(t, 70)
	bad := sol.Alloc.Clone()
	bad.Cost--
	if err := certify(p, m, bad, 0, false, false); err == nil {
		t.Error("allocation reporting a lower cost than its machines accepted")
	}
	// Too few machines for the demand, with the cost made to match.
	bad = sol.Alloc.Clone()
	for q, n := range bad.Machines {
		if n > 0 {
			bad.Machines[q]--
			bad.Cost -= int64(p.Platform.Machines[q].Cost)
			break
		}
	}
	if err := certify(p, m, bad, 0, false, false); err == nil {
		t.Error("allocation with too few machines accepted")
	}
}

func TestCertifierRejectsBadBound(t *testing.T) {
	p, m, sol := table3Answer(t, 70)
	if err := certify(p, m, sol.Alloc, float64(sol.Alloc.Cost)+1, true, false); err == nil {
		t.Error("bound above the cost accepted")
	}
	if err := certify(p, m, sol.Alloc, float64(sol.Alloc.Cost)-5, true, true); err == nil {
		t.Error("proven answer whose bound does not round up to its cost accepted")
	}
}

// A session answer that rents an offline type or routes through a graph
// the outage excluded is rejected, even though it is feasible and priced
// right for the full problem.
func TestCertifierRejectsOfflineUse(t *testing.T) {
	ctx := context.Background()
	p := rentmin.IllustratingExample()
	p.Target = 70
	rs, _, err := rentmin.NewSession(ctx, p, &rentmin.SessionOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	// The cheapest plan using each graph at full throughput, so some
	// type any outage can hit is in use.
	m := rentmin.NewCostModel(p)
	var before rentmin.Allocation
	off := -1
	for j := range p.App.Graphs {
		rho := make([]int, len(p.App.Graphs))
		rho[j] = p.Target
		a := m.NewAllocation(rho)
		for q, n := range a.Machines {
			if n == 0 {
				continue
			}
			for k, g := range p.App.Graphs {
				if k != j && g.TypeCounts(p.NumTypes())[q] == 0 {
					before, off = a, q
				}
			}
		}
	}
	if off < 0 {
		t.Fatal("no type whose outage leaves a graph running")
	}
	if _, err := rs.Apply(ctx, rentmin.SessionEvent{Kind: rentmin.SessionOutage, Type: off}); err != nil {
		t.Fatal(err)
	}
	_, live := rs.EffectiveProblem()
	if err := certify(p, m, before, 0, false, false); err != nil {
		t.Fatalf("plan not valid for the full problem: %v", err)
	}
	if err := certifyLive(before, rs.State().Offline, live); err == nil {
		t.Errorf("plan renting offline type %d accepted", off)
	}
	routed := before.Clone() // no offline machines, but the excluded graph still carries the throughput
	routed.Machines[off] = 0
	if err := certifyLive(routed, rs.State().Offline, live); err == nil {
		t.Errorf("plan routing through a graph excluded by the outage of type %d accepted", off)
	}
	if err := certifyLive(rs.State().Alloc, rs.State().Offline, live); err != nil {
		t.Errorf("the session's own plan after the outage rejected: %v", err)
	}
}

// metricName is the shape every emitted metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every metric name the benchmark emits has the allowed shape, and the
// names and units match BENCHMARK.json at the repository root.
func TestMetricNames(t *testing.T) {
	type entry struct{ Name, Unit string }
	var bench struct {
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
		Workloads []struct {
			Name string
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	var e2e, layer []entry
	for _, m := range endToEnd {
		e2e = append(e2e, entry{m.name, m.unit})
	}
	for _, m := range perLayer {
		layer = append(layer, entry{m.name, m.unit})
	}
	for _, set := range []struct {
		name       string
		code, file []entry
	}{{"end_to_end", e2e, bench.EndToEnd}, {"per_layer", layer, bench.PerLayer}} {
		if len(set.code) != len(set.file) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", set.name, len(set.code), len(set.file))
			continue
		}
		for i := range set.code {
			if set.code[i] != set.file[i] {
				t.Errorf("%s[%d]: emitted %v, BENCHMARK.json lists %v", set.name, i, set.code[i], set.file[i])
			}
			if !metricName.MatchString(set.code[i].Name) {
				t.Errorf("metric name %q does not match %s", set.code[i].Name, metricName)
			}
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(workloads), len(bench.Workloads))
	}
	for i, w := range workloads {
		if w.name != bench.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json lists %q", i, w.name, bench.Workloads[i].Name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	id := tr.newTrace()
	root := tr.start(id, 0, "op")
	child := tr.start(id, root, "call")
	time.Sleep(5 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	for _, s := range tr.summarize() {
		if s.Name == "op" && s.SelfMs >= s.TotalMs {
			t.Errorf("op self time %.3f ms not below its total %.3f ms", s.SelfMs, s.TotalMs)
		}
	}
	path := t.TempDir() + "/spans.json"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var spans []span
	b, _ := os.ReadFile(path)
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) != 2 || spans[1].Parent != spans[0].ID {
		t.Errorf("spans file %s: %v, %+v", b, err, spans)
	}
}

func TestInterleaveKeepsMix(t *testing.T) {
	a := make([]item, 20)
	b := make([]item, 600)
	for i := range a {
		a[i].key = "a"
	}
	for i := range b {
		b[i].key = "b"
	}
	out := interleave(a, b)
	if len(out) != 620 {
		t.Fatalf("%d items, want 620", len(out))
	}
	n := 0
	for _, it := range out[:310] {
		if it.key == "a" {
			n++
		}
	}
	if n < 9 || n > 11 {
		t.Errorf("first half holds %d of the 20 a-items, want about 10", n)
	}
}

func TestAgree(t *testing.T) {
	ref := rentmin.Solution{Alloc: rentmin.Allocation{Cost: 100}, Bound: 100, Proven: true}
	open := rentmin.Solution{Alloc: rentmin.Allocation{Cost: 110}, Bound: 95.5, Proven: false}
	cases := []struct {
		cost   int64
		proven bool
		ref    rentmin.Solution
		ok     bool
	}{
		{100, true, ref, true},
		{101, true, ref, false},  // two proven answers disagree
		{105, false, ref, true},  // unproven, above the optimum
		{99, false, ref, false},  // below a proven optimum
		{100, true, open, true},  // within the open solve's [bound, cost]
		{95, true, open, false},  // below its bound
		{111, true, open, false}, // a proven optimum above a feasible cost
	}
	for _, c := range cases {
		if err := agree(c.cost, c.proven, c.ref); (err == nil) != c.ok {
			t.Errorf("agree(%d, %v, %+v) = %v, want ok=%v", c.cost, c.proven, c.ref, err, c.ok)
		}
	}
}

// A stall inside one window leaves the median window rate alone; a short
// run is one window.
func TestWindowRate(t *testing.T) {
	rec := newOpLog(time.Second)
	at := time.Duration(0)
	for i := 0; i < 1000; i++ {
		at += time.Millisecond
		if i == 500 {
			at += 500 * time.Millisecond
		}
		rec.doneAt = append(rec.doneAt, at)
	}
	if r := rec.windowRate(); r < 990 || r > 1010 {
		t.Errorf("rate %.1f/s over a run with one stall, want about 1000/s", r)
	}
	rec.doneAt = rec.doneAt[:50]
	if r := rec.windowRate(); r < 990 || r > 1010 {
		t.Errorf("rate %.1f/s over 50 completions, want about 1000/s", r)
	}
	// Batches of 32 completions, 32 ms apart: no window may split one.
	rec.doneAt = nil
	for b := 1; b <= 64; b++ {
		for i := 0; i < 32; i++ {
			rec.doneAt = append(rec.doneAt, time.Duration(b)*32*time.Millisecond)
		}
	}
	if r := rec.windowRate(); r < 999 || r > 1001 {
		t.Errorf("rate %.1f/s over batches of 32, want 1000/s", r)
	}
}
