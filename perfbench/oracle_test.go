package main

import (
	"testing"

	"cosm/internal/browser"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
)

// handOffer builds one offer of a tiny hand-made market.
func handOffer(seq int, typ, model string, charge float64) *offer {
	o := &offer{typ: typ, seq: seq, ref: ref.New("tcp:10.9.9."+string(rune('0'+seq))+":7000", typ)}
	props := []sidl.Property{
		{Name: "CarModel", Value: sidl.EnumLit(model)},
		{Name: "AverageMilage", Value: sidl.IntLit(30000)},
		{Name: "ChargePerDay", Value: sidl.FloatLit(charge)},
		{Name: "ChargeCurrency", Value: sidl.EnumLit("USD")},
	}
	o.setProps(props)
	return o
}

func handMarket() []*offer {
	return []*offer{
		handOffer(1, baseType, "AUDI", 50),
		handOffer(2, extType, "AUDI", 30),
		handOffer(3, baseType, "VW_Golf", 20),
		handOffer(4, baseType, "AUDI", 40),
		handOffer(5, extType, "AUDI", 90),
	}
}

func handQuery(src string, max int, limit float64) *query {
	return &query{
		req:   trader.ImportRequest{Type: baseType, Constraint: src, Policy: importPol, Max: max},
		c:     trader.MustCompile(src),
		limit: limit,
	}
}

func answer(os ...*offer) []trader.Match {
	ms := make([]trader.Match, len(os))
	for i, o := range os {
		ms[i] = trader.Match{Offer: &trader.Offer{ID: "o" + o.ref.Endpoint, Type: o.typ, Ref: o.ref, Props: o.lits}}
	}
	return ms
}

func TestModelLowest(t *testing.T) {
	offers := handMarket()
	m := newModel(offers)
	q := handQuery("ChargePerDay < 60 && CarModel == AUDI", 2, 60)
	got := m.lowest(q)
	if len(got) != 2 || got[0] != 30 || got[1] != 40 {
		t.Fatalf("lowest = %v, want [30 40]", got)
	}
	m.remove(offers[1])
	if got := m.lowest(q); len(got) != 2 || got[0] != 40 || got[1] != 50 {
		t.Fatalf("after withdrawing the 30 offer: %v, want [40 50]", got)
	}
}

func TestCheckImport(t *testing.T) {
	offers := handMarket()
	q := handQuery("ChargePerDay < 60 && CarModel == AUDI", 2, 60)
	q.want = newModel(offers).lowest(q)
	if err := checkImport(q, answer(offers[1], offers[3]), nil); err != nil {
		t.Fatalf("the right answer was refused: %v", err)
	}
	for name, got := range map[string][]trader.Match{
		"too many offers":            answer(offers[1], offers[3], offers[0]),
		"not the cheapest":           answer(offers[1], offers[0]),
		"fails the constraint":       answer(offers[1], offers[2]),
		"too few offers":             answer(offers[1]),
		"outside the ChargePerDay":   answer(offers[1], offers[4]),
		"wrong order of the charges": answer(offers[3], offers[1]),
	} {
		if err := checkImport(q, got, nil); err == nil {
			t.Errorf("%s: a wrong answer passed the oracle", name)
		}
	}
	right := answer(offers[1], offers[3])
	if err := checkImport(q, right, map[string]bool{right[0].ID: true}); err == nil {
		t.Error("a withdrawn offer passed the oracle")
	}
	alien := answer(offers[1], offers[3])
	alien[1].Type = "PrinterService"
	if err := checkImport(q, alien, nil); err == nil {
		t.Error("an offer of a non-conforming type passed the oracle")
	}
}

func TestCheckSession(t *testing.T) {
	sid := sidl.CarRentalSID()
	s := &session{name: sid.ServiceName, keyword: "carrentalservice", model: "VW_Golf", days: 3, charge: 285}
	if err := checkSearch(s, []browser.Entry{{Name: sid.ServiceName, SID: sid}}); err != nil {
		t.Fatalf("the right search answer was refused: %v", err)
	}
	if err := checkSearch(s, []browser.Entry{{Name: sid.ServiceName, SID: sid}, {Name: "Other", SID: sid}}); err == nil {
		t.Error("a search finding two services passed")
	}
	if err := checkSearch(s, nil); err == nil {
		t.Error("an empty search passed")
	}
	if err := checkSelect(s, true, 285); err != nil {
		t.Fatalf("the right SelectCar reply was refused: %v", err)
	}
	if err := checkSelect(s, true, 240); err == nil {
		t.Error("a wrong charge passed")
	}
	if err := checkCommit(s, true, "RES-0007-VW_Golf-3d"); err != nil {
		t.Fatalf("the right Commit reply was refused: %v", err)
	}
	for _, c := range []string{"RES-0007-AUDI-3d", "RES-0007-VW_Golf-4d", ""} {
		if err := checkCommit(s, true, c); err == nil {
			t.Errorf("confirmation %q passed", c)
		}
	}
	if err := checkCommit(s, false, "RES-0007-VW_Golf-3d"); err == nil {
		t.Error("a Commit that is not ok passed")
	}
}
