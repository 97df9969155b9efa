package main

// Workloads: set up the daemons with the seeded market, then drive a
// closed loop — each client sends its next op only when the previous
// reply is in and checked.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cosm/internal/browser"
	"cosm/internal/genclient"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/wire"
)

// workload describes one traffic mix.
type workload struct {
	name    string
	path    string // "trader" or "mediate": which daemons serve it
	clients int
}

// workloads: why each exists is in BENCHMARK.json and README.md.
var workloads = []workload{
	{"import_miss", "trader", 2},
	{"import_hit", "trader", 2},
	{"market_churn", "trader", 1},
	{"mediate", "mediate", 1},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything one run sends, generated from the seed.
type inputs struct {
	mk    *market
	reads []*query   // import_miss, import_hit: the import stream
	churn []churnOp  // market_churn: the op stream
	md    *mediation // mediate
}

func makeInputs(cfg *config, w workload) (*inputs, error) {
	in := &inputs{}
	// The churn stream is sized past what one run can consume (up to
	// 1500 ops/s); if it runs out the window ends early and the report
	// shows the shorter window. The import_miss stream wraps: by the time
	// a query recurs the result cache (TTL 250 ms, 512 entries) and the
	// constraint cache (256 entries) have long forgotten it. Keeping the
	// streams small keeps the generator's heap, and its GC, small.
	n := int(cfg.seconds+cfg.warmup.Seconds())*1500 + 3000
	switch w.name {
	case "import_miss":
		in.mk = newMarket(cfg.seed, cfg.offers)
		in.reads = in.mk.missQueries(cfg.seed, n)
	case "import_hit":
		in.mk = newMarket(cfg.seed, cfg.offers)
		in.reads = in.mk.hotQueries(cfg.seed)
	case "market_churn":
		in.mk = newMarket(cfg.seed, cfg.offers)
		in.churn = in.mk.churnOps(cfg.seed, n)
	case "mediate":
		md, err := newMediation(cfg.seed, cfg.sids, n)
		if err != nil {
			return nil, err
		}
		in.md = md
	}
	return in, nil
}

// side is a running set of daemons plus the generator's clients of them.
type side interface {
	daemons() []*daemonProc
	close()
}

// traderSide is a traderd loaded with the seeded market.
type traderSide struct {
	d       *daemonProc
	pools   []*wire.Pool
	clients []*trader.Client
	ids     map[string]string // offer reference → trader offer ID
	dataDir string
}

func (s *traderSide) daemons() []*daemonProc { return []*daemonProc{s.d} }

func (s *traderSide) close() {
	for _, p := range s.pools {
		_ = p.Close() // the daemon is going away anyway
	}
	s.d.kill()
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir) // scratch state of a finished run
	}
}

var setupSeq atomic.Int64

// setupTrader starts traderd, defines the base and extended types,
// exports the market in batches and warms both type snapshots with one
// import. With journal the daemon journals into a fresh data directory;
// without, it keeps the shipped in-memory default.
func setupTrader(ctx context.Context, cfg *config, mk *market, clients int, journal bool) (*traderSide, error) {
	args := []string{"-id", "perfbench"}
	var dataDir string
	if journal {
		dataDir = filepath.Join(cfg.work, "data-"+strconv.Itoa(os.Getpid())+"-"+strconv.FormatInt(setupSeq.Add(1), 10))
		args = append(args, "-data-dir", dataDir)
	}
	d, err := startDaemon(ctx, filepath.Join(cfg.bin, "traderd"), "traderd", args...)
	if err != nil {
		return nil, err
	}
	s := &traderSide{d: d, ids: make(map[string]string, len(mk.offers)), dataDir: dataDir}
	fail := func(err error) (*traderSide, error) {
		s.close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		p := wire.NewPool()
		s.pools = append(s.pools, p)
		tc, err := trader.DialTrader(ctx, p, d.ref)
		if err != nil {
			return fail(err)
		}
		s.clients = append(s.clients, tc)
	}
	tc := s.clients[0]
	ext, err := sidl.Parse(extendedIDL())
	if err != nil {
		return fail(err)
	}
	for _, sid := range []*sidl.SID{sidl.CarRentalSID(), ext} {
		if err := tc.DefineTypeFromSID(ctx, sid); err != nil {
			return fail(err)
		}
	}
	const batch = 500
	for i := 0; i < len(mk.offers); i += batch {
		part := mk.offers[i:min(i+batch, len(mk.offers))]
		items := make([]trader.ExportItem, len(part))
		for j, o := range part {
			items[j] = trader.ExportItem{Type: o.typ, Ref: o.ref, Props: o.props}
		}
		ids, err := tc.ExportAll(ctx, items)
		if err != nil {
			return fail(err)
		}
		for j, o := range part {
			s.ids[o.key()] = ids[j]
		}
	}
	if _, err := tc.ImportGraded(ctx, trader.ImportRequest{Type: baseType, Constraint: "ChargePerDay < 0", Max: 1}); err != nil {
		return fail(err)
	}
	return s, nil
}

// mediateSide is a browserd holding the seeded SIDs, each pointing at
// one carrentald.
type mediateSide struct {
	browser, rental *daemonProc
	pool            *wire.Pool
	bc              *browser.Client
}

func (s *mediateSide) daemons() []*daemonProc { return []*daemonProc{s.browser, s.rental} }

func (s *mediateSide) close() {
	if s.pool != nil {
		_ = s.pool.Close() // the daemons are going away anyway
	}
	for _, d := range s.daemons() {
		if d != nil {
			d.kill()
		}
	}
}

func setupMediate(ctx context.Context, cfg *config, md *mediation) (*mediateSide, error) {
	s := &mediateSide{}
	fail := func(err error) (*mediateSide, error) {
		s.close()
		return nil, err
	}
	var err error
	if s.browser, err = startDaemon(ctx, filepath.Join(cfg.bin, "browserd"), "browserd"); err != nil {
		return fail(err)
	}
	if s.rental, err = startDaemon(ctx, filepath.Join(cfg.bin, "carrentald"), "carrentald"); err != nil {
		return fail(err)
	}
	s.pool = wire.NewPool()
	if s.bc, err = browser.DialBrowser(ctx, s.pool, s.browser.ref); err != nil {
		return fail(err)
	}
	for _, sid := range md.sids {
		if err := s.bc.RegisterSID(ctx, sid, s.rental.ref); err != nil {
			return fail(err)
		}
	}
	rec := &clientRec{lat: map[string][]float64{}}
	runSession(ctx, s, &md.sessions[0], rec, nil, 0)
	if rec.failed > 0 {
		return fail(rec.errs[0])
	}
	return s, nil
}

// setup starts the workload's daemons and loads its market.
func setup(ctx context.Context, cfg *config, w workload, in *inputs) (side, error) {
	if w.path == "mediate" {
		return setupMediate(ctx, cfg, in.md)
	}
	// Only the workload with writes journals: its window exercises the
	// journal. The import-only workloads keep the in-memory default, so
	// loading 10k offers does not time the disk.
	return setupTrader(ctx, cfg, in.mk, w.clients, in.churn != nil)
}

// clientRec is one client's record of the ops it ran.
type clientRec struct {
	lat       map[string][]float64 // µs by op kind
	attempted int
	failed    int
	errs      []error
	ends      []time.Duration // completion times since the window opened
}

func (r *clientRec) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// loop drives the workload's closed loop until the deadline.
type loop struct {
	w     workload
	in    *inputs
	s     side
	next  atomic.Int64 // shared position in the input stream
	churn *churnState
}

// churnState is the single churn client's knowledge of the writes it
// made: the IDs the trader assigned and the offers it withdrew.
type churnState struct {
	ids       map[string]string
	withdrawn map[string]bool
}

func newLoop(w workload, in *inputs, s side) *loop {
	l := &loop{w: w, in: in, s: s}
	if ts, ok := s.(*traderSide); ok && in.churn != nil {
		l.churn = &churnState{ids: ts.ids, withdrawn: map[string]bool{}}
	}
	return l
}

// run drives the loop for d with the workload's clients and returns
// their merged record and the window's length. It stops early when the
// input stream runs out.
func (l *loop) run(ctx context.Context, d time.Duration, tr *tracer) (*clientRec, time.Duration) {
	deadline := time.Now().Add(d)
	recs := make([]*clientRec, l.w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = &clientRec{lat: map[string][]float64{}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && l.step(ctx, c, recs[c], tr) {
				recs[c].ends = append(recs[c].ends, time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := &clientRec{lat: map[string][]float64{}}
	for _, r := range recs {
		all.attempted += r.attempted
		all.failed += r.failed
		all.errs = append(all.errs, r.errs...)
		all.ends = append(all.ends, r.ends...)
		for k, v := range r.lat {
			all.lat[k] = append(all.lat[k], v...)
		}
	}
	return all, elapsed
}

// step runs one op; false means the input stream is exhausted.
func (l *loop) step(ctx context.Context, c int, rec *clientRec, tr *tracer) bool {
	i := l.next.Add(1) - 1
	switch {
	case l.in.md != nil:
		s := &l.in.md.sessions[i%int64(len(l.in.md.sessions))]
		runSession(ctx, l.s.(*mediateSide), s, rec, tr, i)
	case l.in.churn != nil:
		if i >= int64(len(l.in.churn)) {
			return false
		}
		runChurnOp(ctx, l.s.(*traderSide).clients[c], &l.in.churn[i], l.churn, rec, tr, i)
	default:
		q := l.in.reads[i%int64(len(l.in.reads))]
		runImport(ctx, l.s.(*traderSide).clients[c], q, nil, rec, tr, i)
	}
	return true
}

func runImport(ctx context.Context, tc *trader.Client, q *query, withdrawn map[string]bool, rec *clientRec, tr *tracer, req int64) {
	root := tr.start("op.import", -1, req)
	rec.attempted++
	sp := tr.start("trader.Client.ImportGraded", root, req)
	t0 := time.Now()
	ms, err := tc.ImportGraded(ctx, q.req)
	lat := time.Since(t0)
	tr.end(sp)
	sp = tr.start("oracle.checkImport", root, req)
	if err == nil {
		err = checkImport(q, ms, withdrawn)
	}
	tr.end(sp)
	tr.end(root)
	if err != nil {
		rec.fail(err)
		return
	}
	rec.lat["import"] = append(rec.lat["import"], us(lat))
}

func runChurnOp(ctx context.Context, tc *trader.Client, op *churnOp, st *churnState, rec *clientRec, tr *tracer, req int64) {
	if op.kind == opImport {
		runImport(ctx, tc, op.q, st.withdrawn, rec, tr, req)
		return
	}
	root := tr.start("op."+op.kind.String(), -1, req)
	rec.attempted++
	key := op.o.key()
	var err error
	sp := tr.start("trader.Client."+op.kind.String(), root, req)
	t0 := time.Now()
	switch op.kind {
	case opExport:
		var id string
		if id, err = tc.Export(ctx, op.o.typ, op.o.ref, op.o.props); err == nil {
			st.ids[key] = id
		}
	case opWithdraw:
		if err = tc.Withdraw(ctx, st.ids[key]); err == nil {
			st.withdrawn[st.ids[key]] = true
		}
	case opReplace:
		err = tc.Replace(ctx, st.ids[key], op.props)
	}
	lat := time.Since(t0)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		rec.fail(fmt.Errorf("%s %s: %w", op.kind, key, err))
		return
	}
	rec.lat["write"] = append(rec.lat["write"], us(lat))
	rec.lat[op.kind.String()] = append(rec.lat[op.kind.String()], us(lat))
}

// runSession runs one mediation session: keyword search (the SID is
// transferred and parsed in the reply), generic-client bind (form
// generation, FSM session), SelectCar and Commit through the forms.
func runSession(ctx context.Context, ms *mediateSide, s *session, rec *clientRec, tr *tracer, req int64) {
	root := tr.start("op.session", -1, req)
	rec.attempted++
	t0 := time.Now()
	err := sessionOps(ctx, ms, s, tr, root, req)
	lat := time.Since(t0)
	tr.end(root)
	if err != nil {
		rec.fail(err)
		return
	}
	rec.lat["session"] = append(rec.lat["session"], us(lat))
}

func sessionOps(ctx context.Context, ms *mediateSide, s *session, tr *tracer, root int, req int64) error {
	sp := tr.start("browser.Client.Search", root, req)
	entries, err := ms.bc.Search(ctx, s.keyword)
	tr.end(sp)
	if err != nil {
		return err
	}
	if err := checkSearch(s, entries); err != nil {
		return err
	}
	// One generic client per session, as one user would have: a shared
	// client would keep every binding it ever opened.
	sp = tr.start("genclient.BindEntry", root, req)
	b, err := genclient.New(ms.pool).BindEntry(entries[0])
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start("genclient.InvokeForm.SelectCar", root, req)
	res, err := b.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model":       s.model,
		"SelectCar.selection.days":        strconv.Itoa(s.days),
		"SelectCar.selection.bookingDate": s.date,
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	avail, err := res.Value.Field("available")
	if err != nil {
		return err
	}
	charge, err := res.Value.Field("charge")
	if err != nil {
		return err
	}
	if err := checkSelect(s, avail.Bool, charge.Float); err != nil {
		return err
	}
	sp = tr.start("genclient.InvokeForm.Commit", root, req)
	res, err = b.InvokeForm(ctx, "Commit", nil)
	tr.end(sp)
	if err != nil {
		return err
	}
	ok, err := res.Value.Field("ok")
	if err != nil {
		return err
	}
	conf, err := res.Value.Field("confirmation")
	if err != nil {
		return err
	}
	return checkCommit(s, ok.Bool, conf.Str)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
