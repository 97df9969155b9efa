package main

// Steadiness mode: repeat the untraced run on N seeds, print each
// end-to-end metric's median and quartiles, flag any whose spread
// exceeds its bound in BENCHMARK.json, then confirm on N other seeds
// that the medians agree within the bound.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readBounds returns the end-to-end metrics' bounds from BENCHMARK.json
// in the current directory.
func readBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func steady(ctx context.Context, cfg *config, w workload) int {
	bounds, err := readBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var sets [2]map[string][]float64
	for set := range sets {
		sets[set] = map[string][]float64{}
		for i := 0; i < cfg.steady; i++ {
			c := *cfg
			c.seed = cfg.seed + int64(set*1000+i)
			res, _, err := runOnce(ctx, &c, w)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: seed %d: %d of %d ops failed\n", c.seed, res.Failed, res.Attempted)
				return 1
			}
			fmt.Printf("seed %d:", c.seed)
			for _, k := range sortedKeys(res.Metrics) {
				sets[set][k] = append(sets[set][k], res.Metrics[k].Value)
				fmt.Printf(" %s=%.4g", k, res.Metrics[k].Value)
			}
			fmt.Println()
		}
	}
	names := sortedKeys(bounds)
	flagged := 0
	fmt.Printf("%-22s %6s %12s %12s %12s %7s %12s %7s %7s\n", "metric", "bound", "q1", "median", "q3", "spread", "median2", "spread2", "shift")
	for _, k := range names {
		q1, med, q3 := quartiles(sets[0][k])
		r1, med2, r3 := quartiles(sets[1][k])
		spread, spread2 := ratio(q3-q1, med), ratio(r3-r1, med2)
		shift := ratio(med2-med, med)
		note := ""
		if k != "setup_s" && (spread > bounds[k] || spread2 > bounds[k]) {
			note += " SPREAD>BOUND"
		}
		if shift > bounds[k] || -shift > bounds[k] {
			note += " SHIFT>BOUND"
		}
		if note != "" {
			flagged++
		}
		fmt.Printf("%-22s %6.3f %12.4f %12.4f %12.4f %7.4f %12.4f %7.4f %+7.4f%s\n", k, bounds[k], q1, med, q3, spread, med2, spread2, shift, note)
	}
	if flagged > 0 {
		fmt.Printf("%d metric(s) flagged\n", flagged)
		return 1
	}
	return 0
}
