package milp

import (
	"math"
	"testing"
)

// intObj rounds an objective value that is integral in exact arithmetic
// (hardCoverMILP has integer costs and integer variables), failing the
// test if the float is not within LP tolerance of an integer. Warm and
// cold pivot sequences differ, so their results agree only up to roundoff
// — exact comparisons must go through the integral value.
func intObj(t *testing.T, v float64) int64 {
	t.Helper()
	r := math.Round(v)
	if math.Abs(v-r) > 1e-6 {
		t.Fatalf("objective %v is not integral", v)
	}
	return int64(r)
}

// runTrace solves p and records the incumbent objective sequence.
func runTrace(t *testing.T, p *Problem, workers int, cold bool) (Result, []float64) {
	t.Helper()
	var seq []float64
	opts := &Options{
		Workers:       workers,
		DisableWarmLP: cold,
		OnIncumbent:   func(obj float64, x []float64) { seq = append(seq, obj) },
	}
	res, err := Solve(p, opts)
	if err != nil {
		t.Fatalf("Solve(workers=%d cold=%v): %v", workers, cold, err)
	}
	return res, seq
}

// TestWarmVsColdSameSearch pins the headline properties of the warm-start
// path: across generated instances and worker counts 1/2/8, the
// warm-started and cold searches land on the same optimal objective, and
// each (mode, worker count) pair is exactly reproducible run to run —
// bit-identical objective and identical incumbent cost sequence.
//
// The two modes' incumbent *trajectories* are not compared against each
// other: with branching expressed as variable-bound patches, a child LP
// with alternate optima can legitimately settle on different vertices
// under the warm dual-simplex path and the cold two-phase path (a
// variable at its cap rests nonbasic at the upper bound on one path and
// basic on the other), steering the searches through different — equally
// optimal — trees.
func TestWarmVsColdSameSearch(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99, 1234} {
		p := hardCoverMILP(8, seed)
		for _, w := range workerCounts {
			warm, warmSeq := runTrace(t, p, w, false)
			cold, coldSeq := runTrace(t, p, w, true)
			if warm.Status != Optimal || cold.Status != Optimal {
				t.Fatalf("seed %d workers %d: status warm=%v cold=%v", seed, w, warm.Status, cold.Status)
			}
			if intObj(t, warm.Objective) != intObj(t, cold.Objective) {
				t.Errorf("seed %d workers %d: warm objective %v != cold %v",
					seed, w, warm.Objective, cold.Objective)
			}
			// Run-to-run reproducibility per mode: identical incumbent
			// sequences and bit-identical objectives.
			for _, mode := range []struct {
				cold bool
				res  Result
				seq  []float64
			}{{false, warm, warmSeq}, {true, cold, coldSeq}} {
				again, againSeq := runTrace(t, p, w, mode.cold)
				if math.Float64bits(again.Objective) != math.Float64bits(mode.res.Objective) {
					t.Errorf("seed %d workers %d cold=%v: objective not reproducible", seed, w, mode.cold)
				}
				if len(againSeq) != len(mode.seq) {
					t.Errorf("seed %d workers %d cold=%v: incumbent sequence not reproducible: %v vs %v",
						seed, w, mode.cold, mode.seq, againSeq)
					continue
				}
				for i := range againSeq {
					if math.Float64bits(againSeq[i]) != math.Float64bits(mode.seq[i]) {
						t.Errorf("seed %d workers %d cold=%v: incumbent sequence diverges at %d: %v vs %v",
							seed, w, mode.cold, i, mode.seq, againSeq)
						break
					}
				}
			}
			if warm.WarmLPSolves == 0 {
				t.Errorf("seed %d workers %d: warm search never used the warm path (%d cold solves)",
					seed, w, warm.ColdLPSolves)
			}
			if cold.WarmLPSolves != 0 {
				t.Errorf("seed %d workers %d: DisableWarmLP leaked %d warm solves",
					seed, w, cold.WarmLPSolves)
			}
		}
	}
}

// TestWarmVsColdAcrossWorkerCounts pins the acceptance matrix directly:
// all six (workers, warm/cold) combinations report the same optimal cost.
// Within a fixed warm/cold mode the objective is additionally
// bit-identical across worker counts (worker count never changes which
// LP solves run, only when).
func TestWarmVsColdAcrossWorkerCounts(t *testing.T) {
	p := hardCoverMILP(10, 77)
	var refCost int64
	modeBits := map[bool]uint64{}
	first := true
	for _, w := range workerCounts {
		for _, cold := range []bool{false, true} {
			res, _ := runTrace(t, p, w, cold)
			if res.Status != Optimal {
				t.Fatalf("workers=%d cold=%v: status %v", w, cold, res.Status)
			}
			cost := intObj(t, res.Objective)
			if first {
				refCost, first = cost, false
			} else if cost != refCost {
				t.Errorf("workers=%d cold=%v: cost %d != reference %d", w, cold, cost, refCost)
			}
			if bits, ok := modeBits[cold]; !ok {
				modeBits[cold] = math.Float64bits(res.Objective)
			} else if bits != math.Float64bits(res.Objective) {
				t.Errorf("workers=%d cold=%v: objective bits differ across worker counts", w, cold)
			}
		}
	}
}

// TestWarmReducesLPIterations checks that the warm start actually pays:
// on an instance with a non-trivial tree, the warm search spends strictly
// fewer total simplex pivots than the cold search (the Fig. 8-scale
// benchmark in the repo root tracks the ratio itself).
func TestWarmReducesLPIterations(t *testing.T) {
	p := hardCoverMILP(10, 3)
	warm, _ := runTrace(t, p, 1, false)
	cold, _ := runTrace(t, p, 1, true)
	if warm.Status != Optimal || cold.Status != Optimal {
		t.Fatalf("status warm=%v cold=%v", warm.Status, cold.Status)
	}
	if warm.LPIterations == 0 || cold.LPIterations == 0 {
		t.Fatalf("iteration accounting broken: warm=%d cold=%d", warm.LPIterations, cold.LPIterations)
	}
	if warm.LPIterations >= cold.LPIterations {
		t.Errorf("warm start saved nothing: warm %d pivots >= cold %d (nodes warm=%d cold=%d)",
			warm.LPIterations, cold.LPIterations, warm.Nodes, cold.Nodes)
	}
	t.Logf("pivots: warm=%d cold=%d (%.2fx), warm/cold solves=%d/%d",
		warm.LPIterations, cold.LPIterations,
		float64(cold.LPIterations)/float64(warm.LPIterations),
		warm.WarmLPSolves, warm.ColdLPSolves)
}

// TestWarmWithAllFeatures exercises warm starts together with strong
// branching and integral pruning at every worker count, cross-checking
// the optimum against the plain cold configuration.
func TestWarmWithAllFeatures(t *testing.T) {
	p := hardCoverMILP(8, 11)
	base, _ := runTrace(t, p, 1, true)
	if base.Status != Optimal {
		t.Fatalf("baseline status %v", base.Status)
	}
	for _, w := range workerCounts {
		res, err := Solve(p, &Options{
			Workers:           w,
			StrongBranch:      4,
			IntegralObjective: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal || math.Abs(res.Objective-base.Objective) > 1e-9 {
			t.Errorf("workers=%d: %v objective %v, want %v", w, res.Status, res.Objective, base.Objective)
		}
	}
}
