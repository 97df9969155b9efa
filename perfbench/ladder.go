package main

// The traced run's per-layer ladder. The same seeded inputs are replayed
// through each layer's public entry point, in process, one rung at a
// time, each call inside a span: the trader engine, the trader service
// over a loop: node, the same over TCP, the live daemon; and for the
// mediation path the directory, the browser service, SID parsing, the
// generic client and a bare cosm invocation. A layer's cost is the
// difference between the medians of adjacent rungs.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"cosm/internal/browser"
	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/daemon"
	"cosm/internal/genclient"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

var loopSeq atomic.Int64

// quietNode is an in-process node that logs nothing.
func quietNode() *cosm.Node {
	return cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
}

func loopName(what string) string {
	return "loop:perfbench-" + what + "-" + strconv.FormatInt(loopSeq.Add(1), 10)
}

// localTrader is an in-process trader with the daemon's defaults, loaded
// with the market; with a data directory it journals as traderd
// -data-dir does (default fsync and compaction flags).
type localTrader struct {
	tr   *trader.Trader
	reg  *obs.Registry
	ids  map[string]string
	stop func()
}

func newLocalTrader(mk *market, dataDir string) (*localTrader, error) {
	repo := typemgr.NewRepo()
	ext, err := sidl.Parse(extendedIDL())
	if err != nil {
		return nil, err
	}
	for _, sid := range []*sidl.SID{sidl.CarRentalSID(), ext} {
		st, err := typemgr.FromSID(sid)
		if err != nil {
			return nil, err
		}
		if err := repo.Define(st); err != nil {
			return nil, err
		}
	}
	df := daemon.Register(flag.NewFlagSet("perfbench-trader", flag.ContinueOnError))
	df.DataDir = dataDir
	lt := &localTrader{reg: df.Registry, stop: func() {}}
	lt.tr = trader.New("perfbench", repo, trader.WithMetrics(df.Registry))
	if dataDir != "" {
		j, err := df.OpenJournal()
		if err != nil {
			return nil, err
		}
		if err := j.Start(lt.tr.JournalSnapshot); err != nil {
			_ = j.Close()
			return nil, err
		}
		lt.tr.SetJournal(j)
		lt.stop = func() {
			_ = j.Close() // scratch journal, removed next
			_ = os.RemoveAll(dataDir)
		}
	}
	items := make([]trader.ExportItem, len(mk.offers))
	for i, o := range mk.offers {
		items[i] = trader.ExportItem{Type: o.typ, Ref: o.ref, Props: o.props}
	}
	ids, err := lt.tr.ExportAll(items)
	if err != nil {
		lt.stop()
		return nil, err
	}
	lt.ids = make(map[string]string, len(ids))
	for i, o := range mk.offers {
		lt.ids[o.key()] = ids[i]
	}
	return lt, nil
}

func (lt *localTrader) counts() (series, error) {
	var b bytes.Buffer
	lt.reg.WritePrometheus(&b)
	return parseMetrics(b.Bytes())
}

// ladderReads returns the workload's imports for the ladder: n of them,
// cycling the stream. Churn imports are answered against the market as
// loaded, since the ladder replays them without the writes between.
func ladderReads(in *inputs, mk *market, n int) []*query {
	src := in.reads
	if src == nil {
		for _, op := range in.churn {
			if op.kind == opImport {
				q := *op.q
				q.want = mk.model.lowest(&q)
				src = append(src, &q)
			}
			if len(src) == n {
				break
			}
		}
	}
	out := make([]*query, n)
	for i := range out {
		out[i] = src[i%len(src)]
	}
	return out
}

// replayImports runs qs through call, one span each, checking answers.
func replayImports(ctx context.Context, tr *tracer, name string, qs []*query, loose bool,
	call func(context.Context, trader.ImportRequest) ([]trader.Match, error)) error {
	for i, q := range qs {
		sp := tr.start(name, -1, int64(i))
		ms, err := call(ctx, q.req)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if loose {
			qq := *q
			qq.loose = true
			q = &qq
		}
		if err := checkImport(q, ms, nil); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func medianOf(tr *tracer, name string) float64 { return median(tr.durations(name)) }

// medianDelta is the median over inputs of (rung a − rung b): both rungs
// replay the same inputs in the same order, so pairing them cancels the
// spread of per-input cost that a difference of medians would keep.
func medianDelta(tr *tracer, a, b string) float64 {
	da, db := tr.durations(a), tr.durations(b)
	d := make([]float64, min(len(da), len(db)))
	for i := range d {
		d[i] = da[i] - db[i]
	}
	return median(d)
}

// traderLadder measures the trader path's layers on the workload's
// imports and the seed's churn writes. live is a traderd serving the
// same market; loose skips the exact-answer check on it (after a churn
// window its market is no longer the loaded one).
func traderLadder(ctx context.Context, cfg *config, in *inputs, mk *market, live *traderSide, loose bool, tr *tracer) (map[string]float64, series, error) {
	out := map[string]float64{}
	reads := ladderReads(in, mk, cfg.ladder)

	// Rung 0: the engine, (*Trader).ImportGraded in process.
	lt, err := newLocalTrader(mk, "")
	if err != nil {
		return nil, nil, err
	}
	if err := replayImports(ctx, tr, "trader.ImportGraded", reads, false, lt.tr.ImportGraded); err != nil {
		return nil, nil, err
	}

	// Rungs 1 and 2: the trader service and cosm dispatch over a loop:
	// node, then the same over in-process TCP, each on a fresh trader so
	// that every rung sees the caches as the live daemon does.
	for _, rung := range []struct{ name, endpoint string }{
		{"loop", loopName("trader")},
		{"tcp", "tcp:127.0.0.1:0"},
	} {
		lt, err := newLocalTrader(mk, "")
		if err != nil {
			return nil, nil, err
		}
		svc, err := trader.NewService(lt.tr)
		if err != nil {
			return nil, nil, err
		}
		node := quietNode()
		if err := node.Host(trader.ServiceName, svc); err != nil {
			return nil, nil, err
		}
		if _, err := node.ListenAndServe(rung.endpoint); err != nil {
			return nil, nil, err
		}
		pool := wire.NewPool()
		tc, err := trader.DialTrader(ctx, pool, node.MustRefFor(trader.ServiceName))
		if err == nil {
			err = replayImports(ctx, tr, "trader.Client.ImportGraded/"+rung.name, reads, false, tc.ImportGraded)
		}
		_ = pool.Close()
		_ = node.Close() // in-process scratch node
		if err != nil {
			return nil, nil, err
		}
	}

	// Rung 3: the live daemon, one client, the same imports in order.
	before, err := live.d.scrape(ctx)
	if err != nil {
		return nil, nil, err
	}
	if err := replayImports(ctx, tr, "trader.Client.ImportGraded/daemon", reads, loose, live.clients[0].ImportGraded); err != nil {
		return nil, nil, err
	}
	after, err := live.d.scrape(ctx)
	if err != nil {
		return nil, nil, err
	}
	probe := delta(before, after)

	out["trader.import_us"] = medianOf(tr, "trader.ImportGraded")
	out["trader.service_us"] = medianDelta(tr, "trader.Client.ImportGraded/loop", "trader.ImportGraded")
	out["trader.wire.tcp_extra_us"] = medianDelta(tr, "trader.Client.ImportGraded/tcp", "trader.Client.ImportGraded/loop")
	out["traderd.daemon_extra_us"] = medianDelta(tr, "trader.Client.ImportGraded/daemon", "trader.Client.ImportGraded/tcp")

	// xcode: Marshal/Unmarshal of the real reply values, fetched through
	// a generic cosm.Bind conn to the live daemon.
	conn, err := cosm.Bind(ctx, live.pools[0], live.d.ref)
	if err != nil {
		return nil, nil, err
	}
	var replies []*xcode.Value
	for _, q := range reads[:min(len(reads), 500)] {
		v, err := importReqValue(conn.SID(), q.req)
		if err != nil {
			return nil, nil, err
		}
		res, err := conn.Invoke(ctx, "Import", v)
		if err != nil {
			return nil, nil, err
		}
		replies = append(replies, res.Value)
	}
	if err := codecRung(tr, "trader", replies, out); err != nil {
		return nil, nil, err
	}

	// Writes: the seed's churn mix replayed in order on a journaled
	// in-process trader.
	if err := writeRung(ctx, cfg, in, mk, tr, out); err != nil {
		return nil, nil, err
	}
	return out, probe, nil
}

func importReqValue(sid *sidl.SID, req trader.ImportRequest) (*xcode.Value, error) {
	v := xcode.Zero(sid.Type("ImportReq_t"))
	str := sidl.Basic(sidl.String)
	for name, s := range map[string]string{"serviceType": req.Type, "constraint": req.Constraint, "policy": req.Policy} {
		if err := v.SetField(name, xcode.NewString(str, s)); err != nil {
			return nil, err
		}
	}
	maxV, err := v.Field("max")
	if err != nil {
		return nil, err
	}
	return v, v.SetField("max", xcode.NewInt(maxV.Type, int64(req.Max)))
}

// codecRung times xcode.Marshal and xcode.Unmarshal of reply values.
func codecRung(tr *tracer, path string, replies []*xcode.Value, out map[string]float64) error {
	var total int
	for i, v := range replies {
		sp := tr.start("xcode.Marshal/"+path, -1, int64(i))
		b := xcode.Marshal(v)
		tr.end(sp)
		sp = tr.start("xcode.Unmarshal/"+path, -1, int64(i))
		back, err := xcode.Unmarshal(v.Type, b)
		tr.end(sp)
		if err != nil {
			return err
		}
		if !back.Equal(v) {
			return fmt.Errorf("xcode round trip changed a %s reply", path)
		}
		total += len(b)
	}
	out[path+".xcode.marshal_us"] = medianOf(tr, "xcode.Marshal/"+path)
	out[path+".xcode.unmarshal_us"] = medianOf(tr, "xcode.Unmarshal/"+path)
	out[path+".xcode.reply_bytes"] = float64(total) / float64(max(len(replies), 1))
	return nil
}

// writeRung replays the churn mix on a journaled in-process trader:
// export, withdraw and replace cost, the cost of an import that follows
// a write (it rebuilds the written type's snapshot), and the store and
// journal counts per write.
func writeRung(ctx context.Context, cfg *config, in *inputs, mk *market, tr *tracer, out map[string]float64) error {
	ops := in.churn
	if ops == nil {
		ops = mk.churnOps(cfg.seed, cfg.ladder*2)
	}
	ops = ops[:min(len(ops), cfg.ladder*2)]
	dir := filepath.Join(cfg.work, "ladder-"+strconv.Itoa(os.Getpid())+"-"+strconv.FormatInt(setupSeq.Add(1), 10))
	lt, err := newLocalTrader(mk, dir)
	if err != nil {
		return err
	}
	defer lt.stop()
	before, err := lt.counts()
	if err != nil {
		return err
	}
	withdrawn := map[string]bool{}
	afterWrite := false
	writes := 0
	start := time.Now()
	for i, op := range ops {
		key := ""
		if op.o != nil {
			key = op.o.key()
		}
		var err error
		switch op.kind {
		case opImport:
			name := "trader.ImportGraded/churn"
			if afterWrite {
				name = "trader.ImportGraded/after_write"
			}
			sp := tr.start(name, -1, int64(i))
			var ms []trader.Match
			ms, err = lt.tr.ImportGraded(ctx, op.q.req)
			tr.end(sp)
			if err == nil {
				err = checkImport(op.q, ms, withdrawn)
			}
		case opExport:
			sp := tr.start("trader.Export", -1, int64(i))
			var id string
			id, err = lt.tr.Export(op.o.typ, op.o.ref, op.o.props)
			tr.end(sp)
			lt.ids[key] = id
		case opWithdraw:
			sp := tr.start("trader.Withdraw", -1, int64(i))
			err = lt.tr.Withdraw(lt.ids[key])
			tr.end(sp)
			withdrawn[lt.ids[key]] = true
		case opReplace:
			sp := tr.start("trader.Replace", -1, int64(i))
			err = lt.tr.Replace(lt.ids[key], op.props)
			tr.end(sp)
		}
		if err != nil {
			return fmt.Errorf("write rung op %d (%s): %w", i, op.kind, err)
		}
		afterWrite = op.kind != opImport
		if afterWrite {
			writes++
		}
	}
	elapsed := time.Since(start)
	after, err := lt.counts()
	if err != nil {
		return err
	}
	c := delta(before, after)
	w := float64(max(writes, 1))
	out["trader.export_us"] = medianOf(tr, "trader.Export")
	out["trader.withdraw_us"] = medianOf(tr, "trader.Withdraw")
	out["trader.import_after_write_us"] = medianOf(tr, "trader.ImportGraded/after_write")
	out["rung.trader.snapshot_rebuilds_per_write"] = c.sum("cosm_trader_index_snapshot_rebuilds_total") / w
	out["rung.journal.appends_per_write"] = c.sum("cosm_journal_appends_total") / w
	out["rung.journal.bytes_per_write"] = c.sum("cosm_journal_append_bytes_total") / w
	out["rung.journal.fsyncs_per_s"] = c.sum("cosm_journal_fsyncs_total") / elapsed.Seconds()
	return nil
}

// mediationLadder measures the mediation path's layers on the seed's
// sessions: directory search, the browser service over loop: and TCP,
// SID parsing, the generic client's bind and form invocation, and the
// same invocation through a bare cosm conn with prebuilt values.
func mediationLadder(ctx context.Context, cfg *config, md *mediation, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	sessions := make([]*session, cfg.ladder)
	for i := range sessions {
		sessions[i] = &md.sessions[i%len(md.sessions)]
	}

	rentalSvc, _, err := carrental.New()
	if err != nil {
		return nil, err
	}
	rental := quietNode()
	defer rental.Close()
	if err := rental.Host("CarRentalService", rentalSvc); err != nil {
		return nil, err
	}
	if _, err := rental.ListenAndServe(loopName("rental")); err != nil {
		return nil, err
	}
	carRef := rental.MustRefFor("CarRentalService")

	dir := browser.NewDirectory()
	for _, sid := range md.sids {
		if err := dir.Register(sid, carRef); err != nil {
			return nil, err
		}
	}
	for i, s := range sessions {
		sp := tr.start("browser.Directory.Search", -1, int64(i))
		got := dir.Search(s.keyword)
		tr.end(sp)
		if err := checkSearch(s, got); err != nil {
			return nil, err
		}
	}

	pool := wire.NewPool()
	defer pool.Close()
	var tcpRef ref.ServiceRef
	for _, rung := range []struct{ name, endpoint string }{
		{"loop", loopName("browser")},
		{"tcp", "tcp:127.0.0.1:0"},
	} {
		svc, err := browser.NewService(dir)
		if err != nil {
			return nil, err
		}
		node := quietNode()
		defer node.Close()
		if err := node.Host(browser.ServiceName, svc); err != nil {
			return nil, err
		}
		if _, err := node.ListenAndServe(rung.endpoint); err != nil {
			return nil, err
		}
		r := node.MustRefFor(browser.ServiceName)
		bc, err := browser.DialBrowser(ctx, pool, r)
		if err != nil {
			return nil, err
		}
		name := "browser.Client.Search/" + rung.name
		for i, s := range sessions {
			sp := tr.start(name, -1, int64(i))
			got, err := bc.Search(ctx, s.keyword)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if err := checkSearch(s, got); err != nil {
				return nil, err
			}
		}
		tcpRef = r
	}
	out["browser.search_us"] = medianOf(tr, "browser.Directory.Search")
	out["browser.remote_search_us"] = medianOf(tr, "browser.Client.Search/tcp")
	out["mediate.wire.tcp_extra_us"] = medianDelta(tr, "browser.Client.Search/tcp", "browser.Client.Search/loop")

	// The Search replies through a generic conn: the xcode rung, and the
	// transferred SID text for the parse rung.
	conn, err := cosm.Bind(ctx, pool, tcpRef)
	if err != nil {
		return nil, err
	}
	var replies []*xcode.Value
	var texts []string
	for _, s := range sessions[:min(len(sessions), 500)] {
		res, err := conn.Invoke(ctx, "Search", xcode.NewString(sidl.Basic(sidl.String), s.keyword))
		if err != nil {
			return nil, err
		}
		if len(res.Value.Elems) != 1 {
			return nil, fmt.Errorf("search %q: %d entries", s.keyword, len(res.Value.Elems))
		}
		text, err := res.Value.Elems[0].Field("sidlText")
		if err != nil {
			return nil, err
		}
		replies = append(replies, res.Value)
		texts = append(texts, text.Str)
	}
	if err := codecRung(tr, "mediate", replies, out); err != nil {
		return nil, err
	}
	parsed := make([]*sidl.SID, len(texts))
	for i, text := range texts {
		sid := &sidl.SID{}
		sp := tr.start("sidl.UnmarshalText", -1, int64(i))
		err := sid.UnmarshalText([]byte(text))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		parsed[i] = sid
	}
	out["sidl.parse_us"] = medianOf(tr, "sidl.UnmarshalText")

	// The generic client: bind (form generation, FSM session) and a
	// form-built SelectCar; then the same call through a bare conn with
	// prebuilt values.
	for i, s := range sessions {
		// Every SID of the directory describes the same rental service.
		sid := parsed[i%len(parsed)]
		entry := browser.Entry{Name: sid.ServiceName, SID: sid, Ref: carRef}
		sp := tr.start("genclient.BindEntry", -1, int64(i))
		b, err := genclient.New(pool).BindEntry(entry)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("genclient.InvokeForm", -1, int64(i))
		res, err := b.InvokeForm(ctx, "SelectCar", map[string]string{
			"SelectCar.selection.model":       s.model,
			"SelectCar.selection.days":        strconv.Itoa(s.days),
			"SelectCar.selection.bookingDate": s.date,
		})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err := checkSelectValue(s, res.Value); err != nil {
			return nil, err
		}
		if _, err := b.InvokeForm(ctx, "Commit", nil); err != nil {
			return nil, err
		}
	}
	base := sidl.CarRentalSID()
	cc, err := cosm.BindWithSID(pool, carRef, base)
	if err != nil {
		return nil, err
	}
	args := make([]*xcode.Value, len(sessions))
	for i, s := range sessions {
		if args[i], err = selectValue(base, s); err != nil {
			return nil, err
		}
	}
	for i, s := range sessions {
		sp := tr.start("cosm.Conn.Invoke", -1, int64(i))
		res, err := cc.Invoke(ctx, "SelectCar", args[i])
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err := checkSelectValue(s, res.Value); err != nil {
			return nil, err
		}
	}
	out["genclient.bind_us"] = medianOf(tr, "genclient.BindEntry")
	out["genclient.invoke_us"] = medianOf(tr, "genclient.InvokeForm")
	out["cosm.invoke_us"] = medianOf(tr, "cosm.Conn.Invoke")
	return out, nil
}

func checkSelectValue(s *session, v *xcode.Value) error {
	avail, err := v.Field("available")
	if err != nil {
		return err
	}
	charge, err := v.Field("charge")
	if err != nil {
		return err
	}
	return checkSelect(s, avail.Bool, charge.Float)
}

func selectValue(sid *sidl.SID, s *session) (*xcode.Value, error) {
	v := xcode.Zero(sid.Type("SelectCar_t"))
	model, err := v.Field("model")
	if err != nil {
		return nil, err
	}
	m, err := xcode.NewEnum(model.Type, s.model)
	if err != nil {
		return nil, err
	}
	days, err := v.Field("days")
	if err != nil {
		return nil, err
	}
	if err := v.SetField("model", m); err != nil {
		return nil, err
	}
	if err := v.SetField("days", xcode.NewInt(days.Type, int64(s.days))); err != nil {
		return nil, err
	}
	return v, v.SetField("bookingDate", xcode.NewString(sidl.Basic(sidl.String), s.date))
}
