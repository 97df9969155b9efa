package main

// The traced run: an untraced and a traced half window on the workload's
// daemons (their difference is the tracing overhead), then the
// per-layer ladder of both paths on the seed's inputs.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// perLayer lists the per-layer metrics and their units. Every traced
// run reports all of them: the workload's own path from its own inputs,
// the other path from the seed's default inputs for it.
var perLayer = []struct{ name, unit string }{
	{"trader.import_us", "us"},
	{"trader.import_after_write_us", "us"},
	{"trader.export_us", "us"},
	{"trader.withdraw_us", "us"},
	{"trader.import_cache_hit_ratio", "ratio"},
	{"trader.constraint_cache_hit_ratio", "ratio"},
	{"trader.snapshot_rebuilds_per_write", "count"},
	{"trader.bucket_passes_per_import", "count"},
	{"trader.index_scan_frac", "ratio"},
	{"trader.matches_per_import", "count"},
	{"trader.service_us", "us"},
	{"xcode.marshal_us", "us"},
	{"xcode.unmarshal_us", "us"},
	{"xcode.reply_bytes", "B"},
	{"wire.tcp_extra_us", "us"},
	{"wire.handler_us", "us"},
	{"wire.outside_handler_us", "us"},
	{"traderd.daemon_extra_us", "us"},
	{"journal.appends_per_write", "count"},
	{"journal.bytes_per_write", "B"},
	{"journal.fsyncs_per_s", "1/s"},
	{"browser.search_us", "us"},
	{"browser.remote_search_us", "us"},
	{"sidl.parse_us", "us"},
	{"genclient.bind_us", "us"},
	{"genclient.invoke_us", "us"},
	{"cosm.invoke_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// rpcSpans names the client spans that each carry one RPC.
var rpcSpans = map[string][]string{
	"trader":  {"trader.Client.ImportGraded", "trader.Client.export", "trader.Client.withdraw", "trader.Client.replace"},
	"mediate": {"browser.Client.Search", "genclient.InvokeForm.SelectCar", "genclient.InvokeForm.Commit"},
}

func runTraced(ctx context.Context, cfg *config, w workload) (*result, map[string]any, error) {
	in, err := makeInputs(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	s, err := setup(ctx, cfg, w, in)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	l := newLoop(w, in, s)
	warm, _ := l.run(ctx, cfg.warmup, nil)
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	plain, err := measure(ctx, l, half, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	traced, err := measure(ctx, l, half, tr)
	if err != nil {
		return nil, nil, err
	}
	primary := "import"
	if w.path == "mediate" {
		primary = "session"
	}
	p50Plain := median(append([]float64(nil), plain.rec.lat[primary]...))
	p50Traced := median(append([]float64(nil), traced.rec.lat[primary]...))
	if p50Plain == 0 || p50Traced == 0 {
		return nil, nil, fmt.Errorf("no %s completed in a half window", primary)
	}
	layers := map[string]float64{"trace.overhead_frac": (p50Traced - p50Plain) / p50Plain}

	// Wire: the workload's own daemons over the traced window. Outside
	// handler time is the client's RPC span minus the server's handler.
	c := traced.counts
	handler := ratio(c.sum("cosm_server_request_seconds_sum"), c.sum("cosm_server_request_seconds_count")) * 1e6
	var rpc []float64
	for _, name := range rpcSpans[w.path] {
		rpc = append(rpc, tr.durations(name)...)
	}
	layers["wire.handler_us"] = handler
	layers["wire.outside_handler_us"] = mean(rpc) - handler

	// The trader path. A mediation run has no traderd, so it starts one
	// on the seed's market and replays import_miss inputs against it.
	ts, tin := (*traderSide)(nil), in
	if w.path == "trader" {
		ts = s.(*traderSide)
	} else {
		tin = &inputs{mk: newMarket(cfg.seed, cfg.offers)}
		tin.reads = tin.mk.missQueries(cfg.seed, cfg.ladder)
		if ts, err = setupTrader(ctx, cfg, tin.mk, 1, false); err != nil {
			return nil, nil, err
		}
		defer ts.close()
	}
	tl, probe, err := traderLadder(ctx, cfg, tin, tin.mk, ts, in.churn != nil, tr)
	if err != nil {
		return nil, nil, err
	}
	// Work counts: traderd over the traced window, or over the probe.
	counts := liveCounts(traced.counts, len(traced.rec.lat["write"]), traced.elapsed.Seconds())
	if w.path != "trader" {
		counts = liveCounts(probe, 0, 0)
	}
	// Per-write counts come from the live window when it had writes,
	// else from the ladder's journaled churn replay.
	for _, k := range []string{"trader.snapshot_rebuilds_per_write", "journal.appends_per_write", "journal.bytes_per_write", "journal.fsyncs_per_s"} {
		if _, ok := counts[k]; !ok {
			counts[k] = tl["rung."+k]
		}
	}
	for k, v := range counts {
		layers[k] = v
	}
	for _, k := range []string{"trader.import_us", "trader.import_after_write_us", "trader.export_us", "trader.withdraw_us", "trader.service_us", "traderd.daemon_extra_us"} {
		layers[k] = tl[k]
	}

	// The mediation path, in process.
	md := in.md
	if md == nil {
		if md, err = newMediation(cfg.seed, cfg.sids, cfg.ladder); err != nil {
			return nil, nil, err
		}
	}
	ml, err := mediationLadder(ctx, cfg, md, tr)
	if err != nil {
		return nil, nil, err
	}
	for _, k := range []string{"browser.search_us", "browser.remote_search_us", "sidl.parse_us", "genclient.bind_us", "genclient.invoke_us", "cosm.invoke_us"} {
		layers[k] = ml[k]
	}
	// Codec and TCP numbers belong to the workload's own path.
	own := tl
	if w.path == "mediate" {
		own = ml
	}
	for _, k := range []string{"xcode.marshal_us", "xcode.unmarshal_us", "xcode.reply_bytes", "wire.tcp_extra_us"} {
		layers[k] = own[w.path+"."+k]
	}

	spanFile := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))
	if err := tr.write(spanFile); err != nil {
		return nil, nil, err
	}

	report := baseReport(cfg, w)
	report["spans"] = spanFile
	report["import_p50_untraced_us"] = p50Plain
	report["primary_p50_traced_us"] = p50Traced
	// Total self time by span name: the traced window's op trees and the
	// ladder's flat rung spans.
	report["self_us"] = tr.selfTimes()
	samples := map[string]int{}
	for _, win := range []*window{plain, traced} {
		for k, v := range win.rec.lat {
			samples[k] += len(v)
		}
	}
	report["samples"] = samples
	if w.path == "trader" {
		// The ladder: engine + service + TCP + daemon rungs, against the
		// untraced import p50 under the workload's own concurrency.
		sum := tl["trader.import_us"] + tl["trader.service_us"] + tl["trader.wire.tcp_extra_us"] + tl["traderd.daemon_extra_us"]
		report["ladder_sum_us"] = sum
		report["ladder_gap_frac"] = (p50Plain - sum) / p50Plain
	}
	res := &result{
		Correct:   warm.failed+plain.rec.failed+traced.rec.failed == 0,
		Attempted: plain.rec.attempted + traced.rec.attempted,
		Failed:    plain.rec.failed + traced.rec.failed,
		Metrics:   map[string]metric{},
	}
	for _, e := range append(append(warm.errs, plain.rec.errs...), traced.rec.errs...) {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, report, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
