package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildDaemons builds the shipped daemons once per test binary.
func buildDaemons(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"cosm/cmd/traderd", "cosm/cmd/browserd", "cosm/cmd/carrentald")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	return bin
}

func tinyConfig(t *testing.T, bin, name string) *config {
	return &config{
		workload: name,
		seed:     7,
		seconds:  2,
		bin:      bin,
		work:     t.TempDir(),
		offers:   300,
		sids:     20,
		setups:   2,
		warmup:   200 * time.Millisecond,
		ladder:   60,
	}
}

// TestSmoke runs every workload at tiny size, untraced, and the traced
// run of one workload per path, and checks the result's shape.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	bin := buildDaemons(t)
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(t, bin, w.name)
			res, report, err := runOnce(ctx, cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v", res)
			}
			for _, name := range []string{"setup_s", "ops_per_s", "op_p50_us", "op_p99_us", "success_frac",
				"server_cpu_us_per_op", "client_cpu_us_per_op", "server_rss_mb"} {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("metric %s = %+v", name, m)
				}
			}
			if len(res.Metrics) != 8 {
				t.Errorf("%d end-to-end metrics, want 8", len(res.Metrics))
			}
			if report["seed"] != int64(7) || report["samples"] == nil {
				t.Errorf("report lacks seed or samples: %v", report)
			}
		})
	}
	for _, name := range []string{"market_churn", "mediate"} {
		t.Run("traced/"+name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := runTraced(ctx, tinyConfig(t, bin, name), w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced result: correct=%v, %d metrics", res.Correct, len(res.Metrics))
			}
		})
	}
	if n := len(live.daemons); n != 0 {
		t.Fatalf("%d daemons left running", n)
	}
}
