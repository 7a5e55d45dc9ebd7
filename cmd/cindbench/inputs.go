package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"regexp"

	cind "cind"

	"cind/internal/bank"
)

// Input sizes. Every workload's structure — tuple counts, dirty-row counts,
// group sizes, batch shapes — is fixed here; the seed chooses only the
// values and which rows are dirty. A run's cost therefore does not depend
// on its seed, which is what lets runs on different seeds be compared.
const (
	// scan-clean: reasonBankDB's shape at ~100k tuples. Every account has
	// its matching saving or checking row except a seeded 0.1%, which is
	// missing or mismatched (one CIND violation each), and 0.05% carry a
	// second target row on the same (an, ab) (one CFD violation each).
	cleanAccounts = 50000

	// scan-dirty and scan-routed: a small clean bank plus groups of
	// checking rows that share (an, ab) and differ in cn, so φ2 reports
	// every pair of a group: denseGroups × C(denseGroupSize, 2) violations.
	denseAccounts  = 3000
	denseGroups    = 238
	denseGroupSize = 21

	// delta-churn: the base checking relation, the batch shape, and the
	// share of inserts seeded to violate (one per block of churnBlock).
	churnBase    = 10000
	churnInserts = 4
	churnBlock   = 16

	// reason: the bank instance behind the redundant Σ. The reasoning
	// endpoints never read it; it gives the layer replay an instance.
	reasonAccounts = 2000

	// replayBatches is the length of the churn script the layer replay
	// applies: enough for a p99 with ten samples beyond it.
	replayBatches = 1000
)

// bankDataset is the name every workload serves its bank-schema data under.
const bankDataset = "bank"

// rows holds one generated instance: relation name → tuples as strings in
// schema column order.
type rows map[string][][]string

func (rs rows) add(rel string, vals ...string) { rs[rel] = append(rs[rel], vals) }

// dataset is one served dataset: its name, its constraint spec text and its
// instance, which the server receives as one CSV document per relation.
type dataset struct {
	name string
	spec string
	rows rows
}

// csv renders relation rel as a header-first CSV document.
func (d *dataset) csv(sch *cind.Schema, rel string) []byte {
	r, _ := sch.Relation(rel)
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(r.AttrNames())
	w.WriteAll(d.rows[rel])
	return buf.Bytes()
}

// gen is a seeded value source. Each input gets its own stream, so adding
// a draw to one input never shifts the values of another.
type gen struct{ r *rand.Rand }

func newGen(seed int64, stream uint64) *gen {
	return &gen{r: rand.New(rand.NewPCG(uint64(seed), stream))}
}

func (g *gen) letters(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(g.r.IntN(26))
	}
	return string(b)
}

func (g *gen) digits(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0' + byte(g.r.IntN(10))
	}
	return string(b)
}

// person draws a customer name, address and phone of fixed lengths.
func (g *gen) person() (cn, ca, cp string) {
	return "C" + g.letters(8), "St " + g.digits(5), g.digits(10)
}

// bankSet is the paper's Σ: ϕ1–ϕ3 of Figure 4 and ψ1–ψ6 of Figure 2.
func bankSet() *cind.ConstraintSet {
	sch := bank.Schema()
	set, err := cind.SpecSet(&cind.Spec{Schema: sch, CFDs: bank.CFDs(sch), CINDs: bank.CINDs(sch)})
	if err != nil {
		panic("cindbench: the paper's bank constraints: " + err.Error())
	}
	return set
}

// addInterest adds the clean interest relation: the Figure 1 rates with
// t12 repaired, so ϕ3, ψ5 and ψ6 hold and every violation is seeded.
func addInterest(rs rows) {
	rs.add("interest", "EDI", "UK", "saving", "4.5%")
	rs.add("interest", "EDI", "UK", "checking", "1.5%")
	rs.add("interest", "NYC", "US", "saving", "4%")
	rs.add("interest", "NYC", "US", "checking", "1%")
}

// addAccounts adds n accounts, each with its saving or checking row. With
// dirty, n/2000 target rows are missing, n/2000 carry a different phone
// (each a ψ1 or ψ2 violation) and n/2000 accounts get a second target row
// with another name (a ϕ1 or ϕ2 violation); which accounts is seeded.
func addAccounts(g *gen, rs rows, n int, dirty bool) {
	var missing, mismatch, extra map[int]bool
	if dirty {
		perm := g.r.Perm(n)
		d := n / 2000
		missing, mismatch, extra = indexSet(perm[:d]), indexSet(perm[d:2*d]), indexSet(perm[2*d:3*d])
	}
	for i := 0; i < n; i++ {
		branch := bank.Branches[i%2]
		at := []string{"saving", "checking"}[(i/2)%2]
		an := "A" + g.letters(2) + fmt.Sprintf("%06d", i)
		cn, ca, cp := g.person()
		rs.add(bank.AccountRel(branch), an, cn, ca, cp, at)
		switch {
		case missing[i]:
		case mismatch[i]:
			rs.add(at, an, cn, ca, otherDigit(cp), branch)
		default:
			rs.add(at, an, cn, ca, cp, branch)
		}
		if extra[i] {
			rs.add(at, an, cn+"x", ca, cp, branch)
		}
	}
}

func indexSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

// otherDigit changes the last digit of a digit string.
func otherDigit(s string) string {
	last := s[len(s)-1]
	return s[:len(s)-1] + string('0'+(last-'0'+1)%10)
}

// cleanBank is scan-clean's dataset.
func cleanBank(seed int64) *dataset {
	rs := rows{}
	addInterest(rs)
	addAccounts(newGen(seed, 1), rs, cleanAccounts, true)
	return &dataset{name: bankDataset, spec: cind.MarshalConstraints(bankSet()), rows: rs}
}

// denseBank is the dataset of scan-dirty and scan-routed.
func denseBank(seed int64) *dataset {
	g := newGen(seed, 2)
	rs := rows{}
	addInterest(rs)
	addAccounts(g, rs, denseAccounts, false)
	for grp := 0; grp < denseGroups; grp++ {
		an := "G" + g.letters(2) + fmt.Sprintf("%05d", grp)
		branch := bank.Branches[grp%2]
		for j := 0; j < denseGroupSize; j++ {
			cn, ca, cp := g.person()
			rs.add("checking", an, cn+fmt.Sprintf("%02d", j), ca, cp, branch)
		}
	}
	return &dataset{name: bankDataset, spec: cind.MarshalConstraints(bankSet()), rows: rs}
}

// delta is one tuple change to the checking relation.
type delta struct {
	insert bool
	tuple  []string
}

// deltaWire is the server's delta wire format.
type deltaWire struct {
	Op    string   `json:"op"`
	Rel   string   `json:"rel"`
	Tuple []string `json:"tuple"`
}

func wireDeltas(batch []delta) []deltaWire {
	out := make([]deltaWire, len(batch))
	for i, d := range batch {
		op := "-"
		if d.insert {
			op = "+"
		}
		out[i] = deltaWire{Op: op, Rel: "checking", Tuple: d.tuple}
	}
	return out
}

// deltaBody renders one batch as a POST /deltas body.
func deltaBody(batch []delta) []byte {
	b, err := json.Marshal(map[string][]deltaWire{"deltas": wireDeltas(batch)})
	if err != nil {
		panic("cindbench: marshal deltas: " + err.Error())
	}
	return b
}

func engineDeltas(batch []delta) []cind.Delta {
	out := make([]cind.Delta, len(batch))
	for i, d := range batch {
		t := cind.Consts(d.tuple...)
		if d.insert {
			out[i] = cind.InsertDelta("checking", t)
		} else {
			out[i] = cind.DeleteDelta("checking", t)
		}
	}
	return out
}

// churn generates checking rows and delta batches: each batch inserts
// churnInserts fresh rows and deletes the churnInserts oldest live rows, so
// the relation keeps its size. One fresh row per block of churnBlock is
// seeded to violate, alternating by block between a ϕ2 collision (the
// previous row's an and ab under another name) and a ψ4 violation (a branch
// interest does not list).
type churn struct {
	g    *gen
	n    int
	bad  int
	prev []string
	live [][]string // FIFO of live rows, oldest first
}

// newChurn starts a generator whose FIFO holds live, the checking rows
// already in the instance.
func newChurn(seed int64, live [][]string) *churn {
	return &churn{g: newGen(seed, 3), live: append([][]string(nil), live...)}
}

func (c *churn) row() []string {
	if c.n%churnBlock == 0 {
		c.bad = c.g.r.IntN(churnBlock)
	}
	i := c.n
	c.n++
	an := "D" + c.g.letters(2) + fmt.Sprintf("%07d", i)
	branch := bank.Branches[i%2]
	cn, ca, cp := c.g.person()
	if i%churnBlock == c.bad {
		if (i/churnBlock)%2 == 0 && c.prev != nil {
			an, branch = c.prev[0], c.prev[4]
		} else {
			branch = "LDN"
		}
	}
	t := []string{an, cn, ca, cp, branch}
	c.prev = t
	c.live = append(c.live, t)
	return t
}

func (c *churn) batch() []delta {
	out := make([]delta, 0, 2*churnInserts)
	for k := 0; k < churnInserts; k++ {
		out = append(out, delta{insert: true, tuple: c.row()})
	}
	for k := 0; k < churnInserts; k++ {
		out = append(out, delta{tuple: c.live[0]})
		c.live = c.live[1:]
	}
	return out
}

func (c *churn) script(n int) [][]delta {
	out := make([][]delta, n)
	for i := range out {
		out[i] = c.batch()
	}
	return out
}

// churnInputs is delta-churn's dataset and its first n delta batches. One
// generator draws both, so the base carries the batches' violation rate
// and fresh rows never repeat a base row.
func churnInputs(seed int64, n int) (*dataset, [][]delta) {
	c := newChurn(seed, nil)
	rs := rows{}
	addInterest(rs)
	for i := 0; i < churnBase; i++ {
		rs["checking"] = append(rs["checking"], c.row())
	}
	return &dataset{name: bankDataset, spec: cind.MarshalConstraints(bankSet()), rows: rs}, c.script(n)
}

// idSuffix is the seeded tag the reason workload appends to constraint ids:
// its inputs are the paper's fixed experiment points, so the seed renames
// rather than reshapes them.
func idSuffix(seed int64) string { return newGen(seed, 4).letters(4) }

// redundantBank is the reason workload's bank dataset: the paper's Σ plus
// three copies of every CIND with the X/Y lists rotated jointly (same
// semantics, derivable by CIND2), 11 + 24 = 35 constraints that minimize
// back to 11.
func redundantBank(seed int64) *dataset {
	set := bankSet()
	sfx := idSuffix(seed)
	var extra []cind.Constraint
	for copyIdx := 1; copyIdx <= 3; copyIdx++ {
		for _, c := range set.CINDs() {
			x := append([]string(nil), c.X...)
			y := append([]string(nil), c.Y...)
			if len(x) > 1 {
				rot := copyIdx % len(x)
				x = append(x[rot:], x[:rot]...)
				y = append(y[rot:], y[:rot]...)
			}
			dup, err := cind.NewCIND(set.Schema(), fmt.Sprintf("%s_copy%d_%s", c.ID, copyIdx, sfx),
				c.LHSRel, x, c.Xp, c.RHSRel, y, c.Yp, c.Rows)
			if err != nil {
				panic("cindbench: rotated CIND copy: " + err.Error())
			}
			extra = append(extra, dup)
		}
	}
	redundant, err := set.Append(extra...)
	if err != nil {
		panic("cindbench: redundant bank set: " + err.Error())
	}
	rs := rows{}
	addInterest(rs)
	addAccounts(newGen(seed, 5), rs, reasonAccounts, true)
	return &dataset{name: bankDataset, spec: cind.MarshalConstraints(redundant), rows: rs}
}

// goalsText is the implication request body: Example 3.3, derivable in the
// inference system, and its converse, which the chase refutes.
func goalsText(seed int64) string {
	sfx := idSuffix(seed)
	return fmt.Sprintf("cind ex33_%s: account_EDI[at; nil] <= interest[at; nil] { (_ || _) }\n"+
		"cind conv_%s: interest[ab; nil] <= saving[ab; nil] { (_ || _) }\n", sfx, sfx)
}

// fig11Dataset names the reason workload's consistency dataset.
const fig11Dataset = "fig11b"

var constraintHead = regexp.MustCompile(`(?m)^(cfd|cind) (\w+):`)

// fig11Spec is the Figure 11(b) point the consistency request decides: a
// generated consistent Σ of 2000 CFDs and CINDs over 20 relations, from the
// generator's fixed seed, with seeded constraint ids.
func fig11Spec(seed int64) string {
	w := cind.GenerateWorkload(cind.WorkloadConfig{Relations: 20, Card: 2000, Consistent: true, Seed: 1})
	cs := make([]cind.Constraint, 0, len(w.CFDs)+len(w.CINDs))
	for _, c := range w.CFDs {
		cs = append(cs, c)
	}
	for _, c := range w.CINDs {
		cs = append(cs, c)
	}
	set, err := cind.NewConstraintSet(w.Schema, cs...)
	if err != nil {
		panic("cindbench: generated Σ: " + err.Error())
	}
	return constraintHead.ReplaceAllString(cind.MarshalConstraints(set), "$1 ${2}_"+idSuffix(seed)+":")
}
