package main

// Seeded inputs. Everything a run sends to the daemons — the trader
// market, the import and churn streams, the mediation directory and its
// sessions — is generated here from the workload seed before any daemon
// starts, together with the answer each import must get.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
)

const (
	baseType   = "CarRentalService"
	extType    = "CarRentalPlusService"
	importMax  = 5
	importPol  = "min:ChargePerDay"
	hotQueries = 16
)

var (
	carModels  = []string{"AUDI", "FIAT_Uno", "VW_Golf"}
	currencies = []string{"USD", "DEM", "FF", "SFR", "GBP"}
)

// extendedIDL is the paper's Fig. 2 extension of the car rental service:
// the same operations under another name, with one more trader
// attribute, so it structurally conforms to the base type and base-type
// imports fan out over both type buckets.
func extendedIDL() string {
	idl := strings.Replace(sidl.CarRentalIDL, "module CarRentalService {", "module CarRentalPlusService {", 1)
	idl = strings.Replace(idl, `const string TOD = "CarRentalService";`,
		`const string TOD = "CarRentalPlusService";
        const long Seats = 5;`, 1)
	return idl
}

// offer is one exported offer of the model market.
type offer struct {
	typ    string
	ref    ref.ServiceRef
	props  []sidl.Property
	lits   map[string]sidl.Lit
	charge float64
	seq    int // generation order; breaks charge ties in the model
}

func (o *offer) key() string { return o.ref.String() }

func newOffer(rng *rand.Rand, seq int) *offer {
	typ := baseType
	if rng.Intn(5) < 2 {
		typ = extType
	}
	o := &offer{typ: typ, seq: seq,
		ref: ref.New(fmt.Sprintf("tcp:10.%d.%d.%d:7000", seq>>16&255, seq>>8&255, seq&255), typ)}
	o.setProps(randomProps(rng, typ))
	return o
}

func randomProps(rng *rand.Rand, typ string) []sidl.Property {
	props := []sidl.Property{
		{Name: "CarModel", Value: sidl.EnumLit(carModels[rng.Intn(len(carModels))])},
		{Name: "AverageMilage", Value: sidl.IntLit(int64(10000 + rng.Intn(80000)))},
		{Name: "ChargePerDay", Value: sidl.FloatLit(float64(2000+rng.Intn(18000)) / 100)},
		{Name: "ChargeCurrency", Value: sidl.EnumLit(currencies[rng.Intn(len(currencies))])},
	}
	if typ == extType {
		props = append(props, sidl.Property{Name: "Seats", Value: sidl.IntLit(int64(2 + rng.Intn(6)))})
	}
	return props
}

func (o *offer) setProps(props []sidl.Property) {
	o.props = props
	o.lits = make(map[string]sidl.Lit, len(props))
	for _, p := range props {
		o.lits[p.Name] = p.Value
	}
	o.charge = o.lits["ChargePerDay"].Float
}

// model is the generator's own view of the market: offers sorted by
// ChargePerDay, so the answer to a min:ChargePerDay import is the first
// Max matching offers of a short walk.
type model struct {
	byCharge []*offer
}

func newModel(offers []*offer) *model {
	m := &model{byCharge: append([]*offer(nil), offers...)}
	sort.Slice(m.byCharge, func(i, j int) bool { return less(m.byCharge[i], m.byCharge[j]) })
	return m
}

func less(a, b *offer) bool {
	if a.charge != b.charge {
		return a.charge < b.charge
	}
	return a.seq < b.seq
}

func (m *model) pos(o *offer) int {
	return sort.Search(len(m.byCharge), func(i int) bool { return !less(m.byCharge[i], o) })
}

func (m *model) add(o *offer) {
	i := m.pos(o)
	m.byCharge = append(m.byCharge, nil)
	copy(m.byCharge[i+1:], m.byCharge[i:])
	m.byCharge[i] = o
}

func (m *model) remove(o *offer) {
	i := m.pos(o)
	if i >= len(m.byCharge) || m.byCharge[i] != o {
		panic("perfbench: model out of sync")
	}
	m.byCharge = append(m.byCharge[:i], m.byCharge[i+1:]...)
}

// lowest returns the charges of the cheapest offers matching q, at most
// q.req.Max of them: the answer every conforming trader must give.
func (m *model) lowest(q *query) []float64 {
	var out []float64
	for _, o := range m.byCharge {
		if o.charge >= q.limit || len(out) == q.req.Max {
			break
		}
		if (q.req.Type == baseType || o.typ == q.req.Type) && q.c.Match(o.lits) {
			out = append(out, o.charge)
		}
	}
	return out
}

// query is one import with its compiled constraint and expected answer.
type query struct {
	req   trader.ImportRequest
	c     *trader.Constraint
	limit float64   // every query bounds ChargePerDay from above
	want  []float64 // expected charges, ascending
	loose bool      // want is unknown: check the answer's shape only
}

// newQuery draws a base-type import with fresh random thresholds: a
// ChargePerDay range (the index narrows on it) and one more clause.
func newQuery(rng *rand.Rand, lo, hi float64) *query {
	limit := float64(int(lo*100)+rng.Intn(int((hi-lo)*100))) / 100
	var extra string
	switch rng.Intn(3) {
	case 0:
		extra = fmt.Sprintf("AverageMilage < %d", 20000+rng.Intn(70000))
	case 1:
		extra = "CarModel == " + carModels[rng.Intn(len(carModels))]
	default:
		extra = "ChargeCurrency == " + currencies[rng.Intn(len(currencies))]
	}
	src := fmt.Sprintf("ChargePerDay < %.2f && %s", limit, extra)
	return &query{
		req:   trader.ImportRequest{Type: baseType, Constraint: src, Policy: importPol, Max: importMax},
		c:     trader.MustCompile(src),
		limit: limit,
	}
}

// market is a seeded trader market plus its query streams.
type market struct {
	offers []*offer
	model  *model
}

func newMarket(seed int64, n int) *market {
	rng := rand.New(rand.NewSource(seed))
	offers := make([]*offer, n)
	for i := range offers {
		offers[i] = newOffer(rng, i)
	}
	return &market{offers: offers, model: newModel(offers)}
}

// missQueries draws n imports whose constraint texts are all distinct,
// so neither the result cache nor the constraint cache can answer one.
func (mk *market) missQueries(seed int64, n int) []*query {
	rng := rand.New(rand.NewSource(seed ^ 0x6d697373))
	seen := make(map[string]bool, n)
	qs := make([]*query, 0, n)
	for len(qs) < n {
		q := newQuery(rng, 25, 60)
		if seen[q.req.Constraint] {
			continue
		}
		seen[q.req.Constraint] = true
		q.want = mk.model.lowest(q)
		qs = append(qs, q)
	}
	return qs
}

// hotQueries draws the 16 selective imports of the cache-hit workload.
func (mk *market) hotQueries(seed int64) []*query {
	rng := rand.New(rand.NewSource(seed ^ 0x686f74))
	seen := map[string]bool{}
	var qs []*query
	for len(qs) < hotQueries {
		q := newQuery(rng, 21, 30)
		if seen[q.req.Constraint] {
			continue
		}
		seen[q.req.Constraint] = true
		q.want = mk.model.lowest(q)
		qs = append(qs, q)
	}
	return qs
}

type opKind int

const (
	opImport opKind = iota
	opExport
	opWithdraw
	opReplace
)

func (k opKind) String() string {
	return [...]string{"import", "export", "withdraw", "replace"}[k]
}

// churnOp is one op of the seeded read/write mix. Offers are named by
// their reference; the trader's offer IDs are learned as exports return.
type churnOp struct {
	kind  opKind
	q     *query          // import
	o     *offer          // export, withdraw, replace: the offer
	props []sidl.Property // replace: the new properties
}

// churnOps draws n ops, one in ten a write (export, withdraw or replace
// in equal shares), and computes every import's answer by applying the
// writes to a copy of the model in order. The market's own model is
// left as loaded.
func (mk *market) churnOps(seed int64, n int) []churnOp {
	rng := rand.New(rand.NewSource(seed ^ 0x636875726e))
	m := newModel(mk.offers)
	live := append([]*offer(nil), mk.offers...)
	next := len(mk.offers)
	ops := make([]churnOp, 0, n)
	for len(ops) < n {
		if rng.Intn(10) != 0 {
			q := newQuery(rng, 25, 60)
			q.want = m.lowest(q)
			ops = append(ops, churnOp{kind: opImport, q: q})
			continue
		}
		switch rng.Intn(3) {
		case 0:
			o := newOffer(rng, next)
			next++
			m.add(o)
			live = append(live, o)
			ops = append(ops, churnOp{kind: opExport, o: o})
		case 1:
			i := rng.Intn(len(live))
			o := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			m.remove(o)
			ops = append(ops, churnOp{kind: opWithdraw, o: o})
		default:
			old := live[rng.Intn(len(live))]
			m.remove(old)
			o := &offer{typ: old.typ, ref: old.ref, seq: old.seq}
			o.setProps(randomProps(rng, old.typ))
			m.add(o)
			for i := range live {
				if live[i] == old {
					live[i] = o
				}
			}
			ops = append(ops, churnOp{kind: opReplace, o: o, props: o.props})
		}
	}
	return ops
}

// session is one mediation session: find a service by keyword, bind to
// it through its transferred SID, select a car and commit the booking.
type session struct {
	name    string
	keyword string
	model   string
	days    int
	date    string
	charge  float64
}

// mediation is the seeded browser directory plus its session stream.
type mediation struct {
	sids     []*sidl.SID
	sessions []session
}

var tariff = map[string]float64{"AUDI": 120, "FIAT_Uno": 80, "VW_Golf": 95}

func newMediation(seed int64, nSIDs, nSessions int) (*mediation, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6d6564))
	md := &mediation{}
	for i := 0; i < nSIDs; i++ {
		name := fmt.Sprintf("Rent%05dSvc", i)
		sid, err := sidl.Parse(strings.Replace(sidl.CarRentalIDL, "module CarRentalService {", "module "+name+" {", 1))
		if err != nil {
			return nil, err
		}
		md.sids = append(md.sids, sid)
	}
	for i := 0; i < nSessions; i++ {
		t := rng.Intn(nSIDs)
		car := carModels[rng.Intn(len(carModels))]
		days := 1 + rng.Intn(14)
		md.sessions = append(md.sessions, session{
			name:    md.sids[t].ServiceName,
			keyword: strings.ToLower(md.sids[t].ServiceName),
			model:   car,
			days:    days,
			date:    fmt.Sprintf("2026-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)),
			charge:  tariff[car] * float64(days),
		})
	}
	return md, nil
}
