// Command perfbench is the end-to-end benchmark of the COSM market. It
// starts the real daemons (traderd, or browserd and carrentald) on
// loopback TCP, loads a market generated from the seed, drives a closed
// loop for a fixed time, checks every answer against its own model, and
// prints the metrics as one JSON line.
//
// Usage (bash perfbench/run.sh builds the binaries and passes -bin and
// -work):
//
//	perfbench -bin DIR -work DIR --workload import_miss --seed 1 --seconds 10 --trace 0
//	perfbench -bin DIR -work DIR --workload mediate --seed 1 --steady 5
//
// With --trace 0 the last line holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics from a traced run. A line
// before it holds the run's report: seed, nproc, Go version, clients,
// sample counts and the metrics that are not part of the result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding traderd, browserd and carrentald
	work     string // directory for data dirs and span files
	steady   int

	// Sizes; the harness tests shrink them.
	offers int           // offers in the trader market
	sids   int           // SIDs registered at the browser
	setups int           // set-ups per untraced run; setup_s is their median
	warmup time.Duration // unmeasured closed-loop time before the window
	ladder int           // inputs replayed per rung of the traced ladder
}

// metric is one named result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := &config{offers: 10000, sids: 2000, setups: 3, warmup: 2 * time.Second, ladder: 1000}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "import_miss", "workload to run: import_miss, import_hit, market_churn or mediate")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding traderd, browserd and carrentald")
	flag.StringVar(&cfg.work, "work", ".bench_build/run", "directory for data dirs and span files")
	flag.IntVar(&cfg.steady, "steady", 0, "steadiness mode: repeat the untraced run on this many seeds, twice")
	flag.Parse()
	cfg.trace = trace == 1

	// Every exit path stops the daemons: normal return, error, signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(2)
	}()
	code := run(cfg)
	killAll()
	os.Exit(code)
}

func run(cfg *config) int {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx := context.Background()
	if cfg.steady > 0 {
		return steady(ctx, cfg, w)
	}
	var res *result
	var report map[string]any
	if cfg.trace {
		res, report, err = runTraced(ctx, cfg, w)
	} else {
		res, report, err = runOnce(ctx, cfg, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rb, _ := json.Marshal(map[string]any{"report": report}) // maps of plain values always marshal
	fmt.Println(string(rb))
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// baseReport records what every output must carry.
func baseReport(cfg *config, w workload) map[string]any {
	return map[string]any{
		"workload": w.name,
		"seed":     cfg.seed,
		"nproc":    runtime.NumCPU(),
		"go":       runtime.Version(),
		"clients":  w.clients,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
	}
}

// window is what one measured closed-loop window observed.
type window struct {
	rec       *clientRec
	elapsed   time.Duration
	serverCPU time.Duration
	clientCPU time.Duration
	rssKB     int64
	counts    series // /metrics deltas over the window, all daemons
}

// measure runs the loop for d between two scrapes of every daemon's
// /metrics and /proc, and of the generator's own CPU time.
func measure(ctx context.Context, l *loop, d time.Duration, tr *tracer) (*window, error) {
	ds := l.s.daemons()
	before := make([]series, len(ds))
	statsBefore := make([]procStat, len(ds))
	for i, dm := range ds {
		var err error
		if before[i], err = dm.scrape(ctx); err != nil {
			return nil, err
		}
		if statsBefore[i], err = dm.stat(); err != nil {
			return nil, err
		}
	}
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	rec, elapsed := l.run(ctx, d, tr)
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	win := &window{rec: rec, elapsed: elapsed, clientCPU: cpu1 - cpu0, counts: series{}}
	for i, dm := range ds {
		st, err := dm.stat()
		if err != nil {
			return nil, err
		}
		win.serverCPU += st.cpu - statsBefore[i].cpu
		win.rssKB += st.hwmKB
		after, err := dm.scrape(ctx)
		if err != nil {
			return nil, err
		}
		for k, v := range delta(before[i], after) {
			win.counts[k] += v
		}
	}
	return win, nil
}

func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runOnce is the untraced run: set up cfg.setups times (setup_s is the
// median; the last set-up serves the window), warm up, measure.
func runOnce(ctx context.Context, cfg *config, w workload) (*result, map[string]any, error) {
	in, err := makeInputs(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	var s side
	var setupTimes []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		if s, err = setup(ctx, cfg, w, in); err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer s.close()
	l := newLoop(w, in, s)
	warm, _ := l.run(ctx, cfg.warmup, nil)
	win, err := measure(ctx, l, time.Duration(cfg.seconds*float64(time.Second)), nil)
	if err != nil {
		return nil, nil, err
	}
	report := baseReport(cfg, w)
	report["setup_s_each"] = setupTimes
	res, err := endToEnd(win, median(setupTimes), report)
	if err != nil {
		return nil, nil, err
	}
	// A wrong answer during warm-up fails the run too.
	for _, e := range warm.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed warm-up op:", e)
	}
	res.Correct = res.Correct && warm.failed == 0
	return res, report, nil
}

// endToEnd turns a window into the end-to-end metrics. The op latency
// is over every op of the window: imports, writes or whole sessions.
func endToEnd(win *window, setupS float64, report map[string]any) (*result, error) {
	rec := win.rec
	if rec.attempted == 0 {
		return nil, fmt.Errorf("no ops completed in the window")
	}
	var all []float64
	samples := map[string]int{}
	kinds := make([]string, 0, len(rec.lat))
	for k := range rec.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := rec.lat[k]
		samples[k] = len(v)
		if k != "write" {
			all = append(all, v...)
		}
		p50, _ := percentile(v, 0.50) // v is non-empty
		report[k+"_p50_us"] = p50
		if p99, err := percentile(v, 0.99); err == nil {
			report[k+"_p99_us"] = p99
		} else {
			report[k+"_p99_us"] = err.Error()
		}
	}
	report["samples"] = samples
	perSec := make([]int, int(win.elapsed.Seconds())+1)
	for _, e := range rec.ends {
		perSec[int(e.Seconds())]++
	}
	report["ops_each_s"] = perSec
	report["window_s"] = win.elapsed.Seconds()
	report["counts"] = liveCounts(win.counts, len(rec.lat["write"]), win.elapsed.Seconds())
	for _, e := range rec.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	p50, err := percentile(all, 0.50)
	if err != nil {
		return nil, err
	}
	p99, err := percentile(all, 0.99)
	if err != nil {
		return nil, err
	}
	ops := float64(rec.attempted)
	return &result{
		Correct:   rec.failed == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics: map[string]metric{
			"setup_s":              {setupS, "s"},
			"ops_per_s":            {ops / win.elapsed.Seconds(), "1/s"},
			"op_p50_us":            {p50, "us"},
			"op_p99_us":            {p99, "us"},
			"success_frac":         {(ops - float64(rec.failed)) / ops, "ratio"},
			"server_cpu_us_per_op": {us(win.serverCPU) / ops, "us"},
			"client_cpu_us_per_op": {us(win.clientCPU) / ops, "us"},
			"server_rss_mb":        {float64(win.rssKB) / 1024, "MB"},
		},
	}, nil
}

// liveCounts derives the trader's work counts from traderd's own
// /metrics deltas c over a stretch of live traffic that made the given
// number of writes in the given seconds (empty without imports, as for
// the mediation daemons).
func liveCounts(c series, writes int, seconds float64) map[string]float64 {
	imports := c.sum("cosm_trader_imports_total")
	if imports == 0 {
		return map[string]float64{}
	}
	out := map[string]float64{
		"trader.import_cache_hit_ratio":     ratio(c.sum(`cosm_trader_import_cache_total{outcome="hit"}`), c.sum("cosm_trader_import_cache_total")),
		"trader.constraint_cache_hit_ratio": ratio(c.sum(`cosm_trader_constraint_cache_total{outcome="hit"}`), c.sum("cosm_trader_constraint_cache_total")),
		"trader.bucket_passes_per_import":   c.sum("cosm_trader_index_lookups_total") / imports,
		"trader.index_scan_frac":            ratio(c.sum(`cosm_trader_index_lookups_total{kind="scan"}`), c.sum("cosm_trader_index_lookups_total")),
		"trader.matches_per_import":         ratio(c.sum("cosm_trader_import_matches_sum"), c.sum("cosm_trader_import_matches_count")),
	}
	if writes > 0 {
		w := float64(writes)
		out["trader.snapshot_rebuilds_per_write"] = c.sum("cosm_trader_index_snapshot_rebuilds_total") / w
		out["journal.appends_per_write"] = c.sum("cosm_journal_appends_total") / w
		out["journal.bytes_per_write"] = c.sum("cosm_journal_append_bytes_total") / w
		out["journal.fsyncs_per_s"] = c.sum("cosm_journal_fsyncs_total") / seconds
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
