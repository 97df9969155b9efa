package main

// The answer oracle: every reply the generator gets is checked against
// its own model of the market before the op counts as a success.

import (
	"fmt"
	"regexp"
	"strings"

	"cosm/internal/browser"
	"cosm/internal/trader"
)

// checkImport verifies one import answer: at most Max offers, each of a
// type the request admits and satisfying the constraint, with the
// ChargePerDay values the model's cheapest matching offers have, and —
// when withdrawn is given — none of them withdrawn.
func checkImport(q *query, got []trader.Match, withdrawn map[string]bool) error {
	if len(got) > q.req.Max {
		return fmt.Errorf("import %q: %d offers, max %d", q.req.Constraint, len(got), q.req.Max)
	}
	charges := make([]float64, len(got))
	for i, m := range got {
		if m.Offer == nil {
			return fmt.Errorf("import %q: nil offer", q.req.Constraint)
		}
		if m.Type != baseType && m.Type != extType || q.req.Type != baseType && m.Type != q.req.Type {
			return fmt.Errorf("import %q: offer %s of type %q", q.req.Constraint, m.ID, m.Type)
		}
		if !q.c.Match(m.Props) {
			return fmt.Errorf("import %q: offer %s fails the constraint", q.req.Constraint, m.ID)
		}
		if withdrawn[m.ID] {
			return fmt.Errorf("import %q: withdrawn offer %s returned", q.req.Constraint, m.ID)
		}
		charges[i] = m.Props["ChargePerDay"].Float
	}
	if q.loose {
		return nil
	}
	if len(charges) != len(q.want) {
		return fmt.Errorf("import %q: %d offers, model has %d", q.req.Constraint, len(charges), len(q.want))
	}
	for i := range charges {
		if charges[i] != q.want[i] {
			return fmt.Errorf("import %q: charges %v, model %v", q.req.Constraint, charges, q.want)
		}
	}
	return nil
}

// checkSearch verifies that a keyword search found exactly the target.
func checkSearch(s *session, got []browser.Entry) error {
	if len(got) != 1 || got[0].Name != s.name || got[0].SID == nil || got[0].SID.ServiceName != s.name {
		names := make([]string, len(got))
		for i, e := range got {
			names[i] = e.Name
		}
		return fmt.Errorf("search %q: got [%s], want exactly %s", s.keyword, strings.Join(names, " "), s.name)
	}
	return nil
}

// checkSelect verifies the SelectCar reply: available, at the tariff.
func checkSelect(s *session, available bool, charge float64) error {
	if !available || charge != s.charge {
		return fmt.Errorf("SelectCar %s x%d: available=%v charge=%v, want %v", s.model, s.days, available, charge, s.charge)
	}
	return nil
}

var confirmationRE = regexp.MustCompile(`^RES-[0-9]{4,}-([A-Za-z_]+)-([0-9]+)d$`)

// checkCommit verifies the Commit reply: ok, with a confirmation naming
// the selected model and days.
func checkCommit(s *session, ok bool, confirmation string) error {
	m := confirmationRE.FindStringSubmatch(confirmation)
	if !ok || m == nil || m[1] != s.model || m[2] != fmt.Sprint(s.days) {
		return fmt.Errorf("Commit %s x%d: ok=%v confirmation %q", s.model, s.days, ok, confirmation)
	}
	return nil
}
