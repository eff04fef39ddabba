package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/obs"
)

// Trajectory caps: a pathological search could improve its incumbent or
// run rounds millions of times; the flight recorder keeps the head of
// the trajectory and marks the truncation instead of growing without
// bound.
const (
	maxIncumbentPoints = 256
	maxRoundPoints     = 512
)

// traceContext establishes the request's trace ID: a valid incoming
// X-Rentmin-Trace-Id is adopted (the caller — often a coordinator — is
// correlating processes), anything else is replaced with a fresh ID. The
// ID is echoed on the response header and threaded into the returned
// context, where the dispatch client picks it up to stamp onto remote
// solves — that hop is what makes one ID name a solve fleet-wide.
func (s *Server) traceContext(w http.ResponseWriter, r *http.Request) (context.Context, string) {
	id := r.Header.Get(client.TraceHeader)
	if !obs.ValidTraceID(id) {
		id = obs.NewTraceID()
	}
	w.Header().Set(client.TraceHeader, id)
	return obs.WithTraceID(r.Context(), id), id
}

// searchTrace collects a solve's search trajectory through the
// SolveOptions hooks. It is written by the solve's coordinator goroutine
// and read only after the solve returns, so it needs no locking.
type searchTrace struct {
	start      time.Time
	incumbents []obs.Point
	rounds     []obs.RoundPoint
	truncated  bool
}

// install wires the collector into the per-solve options. Only local
// solves invoke the hooks — a remote dispatch drops them at the wire, so
// a coordinator's stats carry attribution and timing but no interior
// trajectory.
func (t *searchTrace) install(opts *rentmin.SolveOptions) {
	t.start = time.Now()
	opts.OnIncumbent = func(cost float64) {
		if len(t.incumbents) >= maxIncumbentPoints {
			t.truncated = true
			return
		}
		t.incumbents = append(t.incumbents, obs.Point{At: time.Since(t.start), Value: cost})
	}
	opts.OnRound = func(ri rentmin.RoundInfo) {
		if len(t.rounds) >= maxRoundPoints {
			t.truncated = true
			return
		}
		t.rounds = append(t.rounds, obs.RoundPoint{
			Round:     ri.Round,
			At:        ri.Elapsed,
			Bound:     ri.Bound,
			Incumbent: ri.Incumbent,
			Frontier:  ri.Frontier,
			Nodes:     ri.Nodes,
		})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// solveRecord assembles one flight-recorder entry from a finished (or
// failed) solve.
func solveRecord(traceID, endpoint string, item int, start time.Time, queueWait, dur time.Duration, sol rentmin.Solution, err error, st *searchTrace, tr *obs.Trace) obs.SolveRecord {
	rec := obs.SolveRecord{
		TraceID:        traceID,
		Endpoint:       endpoint,
		Item:           item,
		Worker:         sol.Worker,
		Start:          start,
		QueueWait:      queueWait,
		Solve:          dur,
		Proven:         sol.Proven,
		Nodes:          sol.Nodes,
		LPIterations:   sol.LPIterations,
		LPSolves:       sol.LPSolves,
		WarmLPSolves:   sol.WarmLPSolves,
		WastedLPSolves: sol.WastedLPSolves,
		LPKernel:       sol.LPKernel,
		PresolveRows:   sol.Presolve.RowsRemoved,
		PresolveCols:   sol.Presolve.ColsFixed,
		PresolveBounds: sol.Presolve.BoundsTightened,
		PresolveCoeffs: sol.Presolve.CoeffsReduced,
		Spans:          tr.Spans(),
	}
	if sol.Alloc.GraphThroughput != nil {
		rec.Cost = sol.Alloc.Cost
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if st != nil {
		rec.Incumbents = st.incumbents
		rec.Rounds = st.rounds
	}
	return rec
}

// solveStats renders the opt-in response stats block for one solve.
func solveStats(traceID string, queueWait, dur time.Duration, sol rentmin.Solution, st *searchTrace, tr *obs.Trace) *client.SolveStats {
	out := &client.SolveStats{
		TraceID:        traceID,
		Worker:         sol.Worker,
		QueueWaitMs:    ms(queueWait),
		SolveMs:        ms(dur),
		LPKernel:       sol.LPKernel,
		WarmLPSolves:   sol.WarmLPSolves,
		ColdLPSolves:   sol.LPSolves - sol.WarmLPSolves,
		WastedLPSolves: sol.WastedLPSolves,
	}
	if sol.Presolve != (rentmin.PresolveStats{}) {
		ps := client.PresolveStats(sol.Presolve)
		out.Presolve = &ps
	}
	if st != nil {
		out.TrajectoryTruncated = st.truncated
		for _, p := range st.incumbents {
			out.Incumbents = append(out.Incumbents, client.IncumbentPoint{AtMs: ms(p.At), Cost: p.Value})
		}
		for _, rp := range st.rounds {
			wp := client.RoundPoint{
				Round:    rp.Round,
				AtMs:     ms(rp.At),
				Bound:    rp.Bound,
				Frontier: rp.Frontier,
				Nodes:    rp.Nodes,
			}
			if !isInf(rp.Incumbent) {
				inc := rp.Incumbent
				wp.Incumbent = &inc
			}
			out.Rounds = append(out.Rounds, wp)
		}
	}
	for _, sp := range tr.Spans() {
		out.Phases = append(out.Phases, client.PhaseTiming{Name: sp.Name, StartMs: ms(sp.Start), DurMs: ms(sp.Dur)})
	}
	return out
}

func isInf(f float64) bool { return f > 1e300 || f < -1e300 }

// recordSolve folds one finished solve into every observability surface:
// the flight-recorder ring, the queue-wait histogram, and a structured
// log line carrying the trace ID so one grep follows a solve across the
// coordinator's and the worker's logs.
func (s *Server) recordSolve(rec obs.SolveRecord) {
	s.rec.Add(rec)
	s.met.recordQueueWait(ms(rec.QueueWait))
	attrs := []interface{}{
		"trace_id", rec.TraceID,
		"endpoint", rec.Endpoint,
		"item", rec.Item,
		"worker", rec.Worker,
		"queue_wait_ms", ms(rec.QueueWait),
		"solve_ms", ms(rec.Solve),
		"cost", rec.Cost,
		"proven", rec.Proven,
	}
	if rec.Err != "" {
		s.log.Warn("solve failed", append(attrs, "err", rec.Err)...)
		return
	}
	s.log.Info("solve finished", attrs...)
}

// handleDebugSolves serves the flight recorder: the last N solve
// summaries, newest first (?n= bounds the count; 0 or absent returns
// everything the ring retains).
func (s *Server) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
		n = v
	}
	recs := s.rec.Last(n)
	resp := client.DebugSolvesResponse{Total: s.rec.Total(), Solves: make([]client.DebugSolve, len(recs))}
	for i, rec := range recs {
		resp.Solves[i] = client.DebugSolve{
			TraceID:        rec.TraceID,
			Endpoint:       rec.Endpoint,
			Item:           rec.Item,
			Worker:         rec.Worker,
			Start:          rec.Start,
			QueueWaitMs:    ms(rec.QueueWait),
			SolveMs:        ms(rec.Solve),
			Cost:           rec.Cost,
			Proven:         rec.Proven,
			Error:          rec.Err,
			Nodes:          rec.Nodes,
			LPIterations:   rec.LPIterations,
			LPSolves:       rec.LPSolves,
			WarmLPSolves:   rec.WarmLPSolves,
			WastedLPSolves: rec.WastedLPSolves,
			LPKernel:       rec.LPKernel,
			PresolveRows:   rec.PresolveRows,
			PresolveCols:   rec.PresolveCols,
			PresolveBounds: rec.PresolveBounds,
			PresolveCoeffs: rec.PresolveCoeffs,
			Incumbents:     len(rec.Incumbents),
			Rounds:         len(rec.Rounds),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
