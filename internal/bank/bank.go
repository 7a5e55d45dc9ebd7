// Package bank reconstructs the paper's running example: the multi-branch
// bank of Examples 1.1–1.2, the source/target schemas, the instances of
// Figure 1 (tuples t1–t14, including the dirty 10.5% interest rate in t12),
// the CINDs ψ1–ψ6 of Figure 2 and the CFDs ϕ1–ϕ3 of Figure 4. Tests,
// examples and documentation all draw on this package so that every claim
// in the paper's narrative is executable.
package bank

import (
	"cind/internal/cfd"
	cind "cind/internal/core"
	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/schema"
)

// Branches present in the Figure 1 instance.
var Branches = []string{"NYC", "EDI"}

// AccountRel returns the per-branch source relation name account_B.
func AccountRel(branch string) string { return "account_" + branch }

// Schema builds the source and target schemas of Example 1.1:
//
//	source: account_NYC(an, cn, ca, cp, at), account_EDI(...)
//	target: saving(an, cn, ca, cp, ab), checking(an, cn, ca, cp, ab),
//	        interest(ab, ct, at, rt)
//
// Attribute at has the finite domain {saving, checking}; all other
// attributes range over shared infinite domains.
func Schema() *schema.Schema {
	an := schema.Infinite("an")
	cn := schema.Infinite("cn")
	ca := schema.Infinite("ca")
	cp := schema.Infinite("cp")
	ab := schema.Infinite("ab")
	ct := schema.Infinite("ct")
	rt := schema.Infinite("rt")
	at := schema.Finite("at", "saving", "checking")

	accountAttrs := func() []schema.Attribute {
		return []schema.Attribute{
			{Name: "an", Dom: an}, {Name: "cn", Dom: cn}, {Name: "ca", Dom: ca},
			{Name: "cp", Dom: cp}, {Name: "at", Dom: at},
		}
	}
	targetAttrs := func() []schema.Attribute {
		return []schema.Attribute{
			{Name: "an", Dom: an}, {Name: "cn", Dom: cn}, {Name: "ca", Dom: ca},
			{Name: "cp", Dom: cp}, {Name: "ab", Dom: ab},
		}
	}
	rels := []*schema.Relation{}
	for _, b := range Branches {
		rels = append(rels, schema.MustRelation(AccountRel(b), accountAttrs()...))
	}
	rels = append(rels,
		schema.MustRelation("saving", targetAttrs()...),
		schema.MustRelation("checking", targetAttrs()...),
		schema.MustRelation("interest",
			schema.Attribute{Name: "ab", Dom: ab},
			schema.Attribute{Name: "ct", Dom: ct},
			schema.Attribute{Name: "at", Dom: at},
			schema.Attribute{Name: "rt", Dom: rt},
		),
	)
	return schema.MustNew(rels...)
}

// Data loads the Figure 1 instance: account relations (a)–(b), saving (c),
// checking (d) and interest (e) — including the inconsistent tuple t12
// (EDI, UK, checking, 10.5%) that Example 1.2 revolves around.
func Data(sch *schema.Schema) *instance.Database {
	db := instance.NewDatabase(sch)
	nyc := db.Instance(AccountRel("NYC"))
	nyc.InsertConsts("01", "J. Smith", "NYC, 19087", "212-5820844", "saving")  // t1
	nyc.InsertConsts("02", "G. King", "NYC, 19022", "212-3963455", "checking") // t2
	nyc.InsertConsts("03", "J. Lee", "NYC, 02284", "212-5679844", "checking")  // t3
	edi := db.Instance(AccountRel("EDI"))
	edi.InsertConsts("01", "S. Bundy", "EDI, EH8 9LE", "131-6516501", "saving")   // t4
	edi.InsertConsts("02", "I. Stark", "EDI, EH1 4FE", "131-6693423", "checking") // t5

	sav := db.Instance("saving")
	sav.InsertConsts("01", "J. Smith", "NYC, 19087", "212-5820844", "NYC")   // t6
	sav.InsertConsts("01", "S. Bundy", "EDI, EH8 9LE", "131-6516501", "EDI") // t7

	chk := db.Instance("checking")
	chk.InsertConsts("02", "G. King", "NYC, 19022", "212-3963455", "NYC")    // t8
	chk.InsertConsts("03", "J. Lee", "NYC, 02284", "212-5679844", "NYC")     // t9
	chk.InsertConsts("02", "I. Stark", "EDI, EH1 4FE", "131-6693423", "EDI") // t10

	intr := db.Instance("interest")
	intr.InsertConsts("EDI", "UK", "saving", "4.5%")    // t11
	intr.InsertConsts("EDI", "UK", "checking", "10.5%") // t12 — dirty: should be 1.5%
	intr.InsertConsts("NYC", "US", "saving", "4%")      // t13
	intr.InsertConsts("NYC", "US", "checking", "1%")    // t14
	return db
}

// CleanData is Data with the t12 error repaired (10.5% → 1.5%), the state
// in which every constraint of the paper holds.
func CleanData(sch *schema.Schema) *instance.Database {
	db := Data(sch)
	intr := instance.NewDatabase(sch).Instance("interest") // rebuild interest
	for _, t := range db.Instance("interest").Tuples() {
		if t[3].Str() == "10.5%" {
			intr.InsertConsts("EDI", "UK", "checking", "1.5%")
		} else {
			intr.Insert(t.Clone())
		}
	}
	clean := instance.NewDatabase(sch)
	for _, rel := range sch.Relations() {
		src := db.Instance(rel.Name())
		if rel.Name() == "interest" {
			src = intr
		}
		for _, t := range src.Tuples() {
			clean.Instance(rel.Name()).Insert(t.Clone())
		}
	}
	return clean
}

// w is shorthand for the wildcard.
var w = pattern.Wild

func s(v string) pattern.Symbol { return pattern.Sym(v) }

// Psi1 is ψ1 for branch B: (account_B[an,cn,ca,cp; at] ⊆
// saving[an,cn,ca,cp; ab], {(_,_,_,_, saving || _,_,_,_, B)}).
func Psi1(sch *schema.Schema, branch string) *cind.CIND {
	return cind.MustNew(sch, "psi1_"+branch,
		AccountRel(branch), []string{"an", "cn", "ca", "cp"}, []string{"at"},
		"saving", []string{"an", "cn", "ca", "cp"}, []string{"ab"},
		[]cind.Row{{
			LHS: pattern.Tup(w, w, w, w, s("saving")),
			RHS: pattern.Tup(w, w, w, w, s(branch)),
		}})
}

// Psi2 is ψ2 for branch B, the checking counterpart of ψ1.
func Psi2(sch *schema.Schema, branch string) *cind.CIND {
	return cind.MustNew(sch, "psi2_"+branch,
		AccountRel(branch), []string{"an", "cn", "ca", "cp"}, []string{"at"},
		"checking", []string{"an", "cn", "ca", "cp"}, []string{"ab"},
		[]cind.Row{{
			LHS: pattern.Tup(w, w, w, w, s("checking")),
			RHS: pattern.Tup(w, w, w, w, s(branch)),
		}})
}

// Psi3 is ψ3 = (saving[ab; nil] ⊆ interest[ab; nil], {(_ || _)}) — a
// traditional IND written as a CIND.
func Psi3(sch *schema.Schema) *cind.CIND {
	return cind.MustNew(sch, "psi3",
		"saving", []string{"ab"}, nil,
		"interest", []string{"ab"}, nil,
		[]cind.Row{{LHS: pattern.Tup(w), RHS: pattern.Tup(w)}})
}

// Psi4 is ψ4, the checking counterpart of ψ3.
func Psi4(sch *schema.Schema) *cind.CIND {
	return cind.MustNew(sch, "psi4",
		"checking", []string{"ab"}, nil,
		"interest", []string{"ab"}, nil,
		[]cind.Row{{LHS: pattern.Tup(w), RHS: pattern.Tup(w)}})
}

// Psi5 is ψ5 = (saving[nil; ab] ⊆ interest[nil; ab, at, ct, rt], T5) with
// the two pattern rows of Figure 2 (covering ind5 and ind7).
func Psi5(sch *schema.Schema) *cind.CIND {
	return cind.MustNew(sch, "psi5",
		"saving", nil, []string{"ab"},
		"interest", nil, []string{"ab", "at", "ct", "rt"},
		[]cind.Row{
			{LHS: pattern.Tup(s("EDI")), RHS: pattern.Tup(s("EDI"), s("saving"), s("UK"), s("4.5%"))},
			{LHS: pattern.Tup(s("NYC")), RHS: pattern.Tup(s("NYC"), s("saving"), s("US"), s("4%"))},
		})
}

// Psi6 is ψ6, the checking counterpart of ψ5 (covering ind6 and ind8).
// The Figure 1 instance violates it via tuple t10.
func Psi6(sch *schema.Schema) *cind.CIND {
	return cind.MustNew(sch, "psi6",
		"checking", nil, []string{"ab"},
		"interest", nil, []string{"ab", "at", "ct", "rt"},
		[]cind.Row{
			{LHS: pattern.Tup(s("EDI")), RHS: pattern.Tup(s("EDI"), s("checking"), s("UK"), s("1.5%"))},
			{LHS: pattern.Tup(s("NYC")), RHS: pattern.Tup(s("NYC"), s("checking"), s("US"), s("1%"))},
		})
}

// CINDs returns Figure 2 in order: ψ1 and ψ2 for each branch, then ψ3–ψ6.
func CINDs(sch *schema.Schema) []*cind.CIND {
	var out []*cind.CIND
	for _, b := range Branches {
		out = append(out, Psi1(sch, b), Psi2(sch, b))
	}
	out = append(out, Psi3(sch), Psi4(sch), Psi5(sch), Psi6(sch))
	return out
}

// Phi1 is ϕ1 = (saving(an, ab → cn, ca, cp), all-wild) — fd1 as a CFD.
func Phi1(sch *schema.Schema) *cfd.CFD {
	return cfd.MustNew(sch, "phi1", "saving",
		[]string{"an", "ab"}, []string{"cn", "ca", "cp"},
		[]cfd.Row{{LHS: pattern.Wilds(2), RHS: pattern.Wilds(3)}})
}

// Phi2 is ϕ2 — fd2 as a CFD on checking.
func Phi2(sch *schema.Schema) *cfd.CFD {
	return cfd.MustNew(sch, "phi2", "checking",
		[]string{"an", "ab"}, []string{"cn", "ca", "cp"},
		[]cfd.Row{{LHS: pattern.Wilds(2), RHS: pattern.Wilds(3)}})
}

// Phi3 is ϕ3 = (interest(ct, at → rt), T'3): the plain fd3 row plus the
// four constant refinements of Figure 4.
func Phi3(sch *schema.Schema) *cfd.CFD {
	return cfd.MustNew(sch, "phi3", "interest",
		[]string{"ct", "at"}, []string{"rt"},
		[]cfd.Row{
			{LHS: pattern.Wilds(2), RHS: pattern.Wilds(1)},
			{LHS: pattern.Tup(s("UK"), s("saving")), RHS: pattern.Tup(s("4.5%"))},
			{LHS: pattern.Tup(s("UK"), s("checking")), RHS: pattern.Tup(s("1.5%"))},
			{LHS: pattern.Tup(s("US"), s("saving")), RHS: pattern.Tup(s("4%"))},
			{LHS: pattern.Tup(s("US"), s("checking")), RHS: pattern.Tup(s("1%"))},
		})
}

// CFDs returns Figure 4 in order ϕ1, ϕ2, ϕ3.
func CFDs(sch *schema.Schema) []*cfd.CFD {
	return []*cfd.CFD{Phi1(sch), Phi2(sch), Phi3(sch)}
}
