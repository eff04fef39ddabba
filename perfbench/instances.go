package main

import (
	"fmt"

	"rentmin"
	"rentmin/internal/experiments"
)

// table3Costs are the optimal costs of Table III of the paper (the
// illustrating example at ρ = 10..200), the values
// internal/experiments/table3_test.go pins.
var table3Costs = []int64{28, 38, 58, 69, 86, 107, 124, 134, 155, 172, 192, 199, 220, 237, 257, 268, 285, 306, 323, 333}

// paperTargets is the paper's sweep, 20..200 step 10.
func paperTargets() []int {
	var ts []int
	for t := 20; t <= 200; t += 10 {
		ts = append(ts, t)
	}
	return ts
}

// Instance families, at the scales of the paper's figures.
var (
	fig3Gen = experiments.Fig3Setting().Gen
	fig6Gen = experiments.Fig6Setting().Gen
	fig8Gen = experiments.Fig8Setting(0).Gen
	// sparseGen has 120 recipes of 1-3 tasks over 200 machine types: a
	// relaxation of about 200 rows whose matrix is almost all zeros.
	sparseGen = rentmin.GenConfig{
		NumGraphs: 120, MinTasks: 1, MaxTasks: 3,
		MutatePercent: 1.0, NumTypes: 200,
		CostMin: 1, CostMax: 100,
		ThroughputMin: 2, ThroughputMax: 12,
	}
)

// subSeed derives the generator seed of the k-th instance of a family
// from the workload seed (splitmix64 over the three inputs).
func subSeed(seed uint64, family byte, k int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(family)<<32 + uint64(k) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// generate draws the k-th instance of a family.
func generate(cfg rentmin.GenConfig, seed uint64, family byte, k int) (*rentmin.Problem, error) {
	p, err := rentmin.Generate(cfg, subSeed(seed, family, k))
	if err != nil {
		return nil, fmt.Errorf("generate %c%d: %w", family, k, err)
	}
	return p, nil
}

// table3Items returns the illustrating example at ρ = 10..200 with the
// paper's optimal costs attached.
func table3Items() []item {
	base := rentmin.IllustratingExample()
	items := make([]item, len(table3Costs))
	for i := range items {
		items[i] = newItem(fmt.Sprintf("t3/%d", (i+1)*10), base, (i+1)*10)
		items[i].golden = table3Costs[i]
	}
	return items
}

// familyItems generates n distinct instances of a family and asks the
// k-th at targets[k mod len(targets)]: one question per instance, so a
// pass averages over many independent draws.
func familyItems(cfg rentmin.GenConfig, seed uint64, family byte, n int, targets []int) ([]item, error) {
	items := make([]item, n)
	for k := range items {
		p, err := generate(cfg, seed, family, k)
		if err != nil {
			return nil, err
		}
		t := targets[k%len(targets)]
		items[k] = newItem(fmt.Sprintf("%c%d/%d", family, k, t), p, t)
	}
	return items, nil
}

// interleave merges lists round-robin in proportion to their lengths, so
// any stretch of a pass holds every family in about the same mix.
func interleave[T any](lists ...[]T) []T {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]T, 0, total)
	taken := make([]int, len(lists))
	for len(out) < total {
		// Take from the list furthest behind its share of the output.
		best, bestLag := -1, 0.0
		for i, l := range lists {
			if taken[i] == len(l) {
				continue
			}
			lag := float64(len(out)+1)*float64(len(l))/float64(total) - float64(taken[i])
			if best < 0 || lag > bestLag {
				best, bestLag = i, lag
			}
		}
		out = append(out, lists[best][taken[best]])
		taken[best]++
	}
	return out
}

func itemKeys(items []item) []string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.key
	}
	return keys
}

// spread picks up to n items evenly from items.
func spread(items []item, n int) []item {
	if len(items) <= n {
		return items
	}
	out := make([]item, n)
	for i := range out {
		out[i] = items[i*len(items)/n]
	}
	return out
}
