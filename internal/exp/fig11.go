package exp

import (
	"fmt"
	"time"

	"cind/internal/consistency"
)

func fmtInt(n int) string { return fmt.Sprintf("%d", n) }

func pctf(f float64) string { return fmt.Sprintf("%.0f%%", 100*f) }

// Fig11Point is one x-position of Figures 11(a)–(c): the constraint count
// against accuracy and runtime of RandomChecking and Checking.
type Fig11Point struct {
	Card         int
	RandomHits   int // consistent verdicts from RandomChecking
	CheckingHits int // consistent verdicts from Checking
	Runs         int
	RandomTime   time.Duration
	CheckingTime time.Duration
}

// Fig11Consistent sweeps card(Σ) on consistent CFD+CIND workloads
// (75%/25% mix) — accuracy is Figure 11(a), runtime Figure 11(b). Ground
// truth is known: every workload is consistent by construction (the
// generator's witness), so "hit" means the algorithm answered true.
func Fig11Consistent(p Params, cards []int) []Fig11Point {
	return fig11(p, cards, true)
}

// Fig11Random sweeps card(Σ) on unconstrained random workloads —
// Figure 11(c) (runtime only; ground truth is unknown, so the hit counts
// merely report how often each algorithm found a witness).
func Fig11Random(p Params, cards []int) []Fig11Point {
	return fig11(p, cards, false)
}

func fig11(p Params, cards []int, consistent bool) []Fig11Point {
	var out []Fig11Point
	for _, card := range cards {
		pt := Fig11Point{Card: card, Runs: p.Runs}
		var rTimes, cTimes []time.Duration
		for run := 0; run < p.Runs; run++ {
			seed := p.Seed + int64(run)*977
			w := p.workload(card, consistent, false, seed)
			var rOK, cOK bool
			rTimes = append(rTimes, timeIt(func() {
				rOK = consistency.RandomCheckingBool(w.Schema, w.CFDs, w.CINDs, p.opts(seed))
			}))
			cTimes = append(cTimes, timeIt(func() {
				cOK = consistency.CheckingBool(w.Schema, w.CFDs, w.CINDs, p.opts(seed))
			}))
			if rOK {
				pt.RandomHits++
			}
			if cOK {
				pt.CheckingHits++
			}
		}
		pt.RandomTime = avg(rTimes)
		pt.CheckingTime = avg(cTimes)
		out = append(out, pt)
	}
	return out
}

// Fig11aSeries renders accuracy on consistent sets (Figure 11(a)).
func Fig11aSeries(points []Fig11Point) *Series {
	s := &Series{
		Title:   "Fig 11(a): accuracy on consistent CFD+CIND sets",
		Columns: []string{"card", "RandomChecking_acc", "Checking_acc"},
	}
	for _, p := range points {
		s.Rows = append(s.Rows, []string{
			fmtInt(p.Card), pct(p.RandomHits, p.Runs), pct(p.CheckingHits, p.Runs),
		})
	}
	return s
}

// Fig11bSeries renders runtime on consistent sets (Figure 11(b)).
func Fig11bSeries(points []Fig11Point) *Series {
	s := &Series{
		Title:   "Fig 11(b): runtime on consistent CFD+CIND sets",
		Columns: []string{"card", "RandomChecking_ms", "Checking_ms"},
	}
	for _, p := range points {
		s.Rows = append(s.Rows, []string{
			fmtInt(p.Card), ms(p.RandomTime), ms(p.CheckingTime),
		})
	}
	return s
}

// Fig11cSeries renders runtime on random sets (Figure 11(c)).
func Fig11cSeries(points []Fig11Point) *Series {
	s := &Series{
		Title:   "Fig 11(c): runtime on random CFD+CIND sets",
		Columns: []string{"card", "RandomChecking_ms", "Checking_ms"},
	}
	for _, p := range points {
		s.Rows = append(s.Rows, []string{
			fmtInt(p.Card), ms(p.RandomTime), ms(p.CheckingTime),
		})
	}
	return s
}

// Fig11dPoint is one x-position of Figure 11(d): the relation count at a
// fixed card(Σ)/relations ratio.
type Fig11dPoint struct {
	Relations    int
	Card         int
	RandomTime   time.Duration
	CheckingTime time.Duration
}

// Fig11d sweeps the number of relations at a fixed ratio of constraints per
// relation (the paper fixes card(Σ)/|R| = 1000 up to 100 relations; ratio
// is a parameter here so the quick benches can scale down).
func Fig11d(p Params, relations []int, ratio int) []Fig11dPoint {
	var out []Fig11dPoint
	for _, rels := range relations {
		pt := Fig11dPoint{Relations: rels, Card: rels * ratio}
		pp := p
		pp.Relations = rels
		var rTimes, cTimes []time.Duration
		for run := 0; run < p.Runs; run++ {
			seed := p.Seed + int64(run)*977
			w := pp.workload(pt.Card, true, false, seed)
			rTimes = append(rTimes, timeIt(func() {
				consistency.RandomCheckingBool(w.Schema, w.CFDs, w.CINDs, pp.opts(seed))
			}))
			cTimes = append(cTimes, timeIt(func() {
				consistency.CheckingBool(w.Schema, w.CFDs, w.CINDs, pp.opts(seed))
			}))
		}
		pt.RandomTime = avg(rTimes)
		pt.CheckingTime = avg(cTimes)
		out = append(out, pt)
	}
	return out
}

// Fig11dSeries renders the relation sweep (Figure 11(d)).
func Fig11dSeries(points []Fig11dPoint) *Series {
	s := &Series{
		Title:   "Fig 11(d): runtime vs number of relations (fixed card/relations ratio)",
		Columns: []string{"relations", "card", "RandomChecking_ms", "Checking_ms"},
	}
	for _, p := range points {
		s.Rows = append(s.Rows, []string{
			fmtInt(p.Relations), fmtInt(p.Card), ms(p.RandomTime), ms(p.CheckingTime),
		})
	}
	return s
}
