// Package shard partitions one dataset across N shard servers and merges
// their violation streams back into the single-node order — the
// scatter-gather layer behind cindserve's router mode.
//
// The paper's detection semantics are what make hash partitioning exact
// rather than approximate: a CFD violation is witnessed by a pair of
// tuples that agree on the embedded FD's LHS attributes X, so any
// partitioning under which an entire X projection group lands on one
// shard preserves every pair; a CIND violation is witnessed by one LHS
// tuple whose demanded RHS match is absent, so any partitioning under
// which each shard sees the full RHS relation preserves every anti-join
// answer. Plan encodes exactly those two placement rules:
//
//   - a relation that appears on the RHS of any CIND is replicated to
//     every shard (the cross-shard anti-join stays local);
//   - otherwise a relation with CFDs is hash-partitioned on the
//     intersection of its CFDs' X attribute sets — violating pairs agree
//     on every X, hence on the intersection, so each X group of each CFD
//     is shard-local. An empty intersection forces replication;
//   - a relation driving no CFD is hash-partitioned on the full tuple.
//
// A constraint whose driving relation (the CFD's relation, the CIND's LHS
// relation) is partitioned has its violations distributed across shards,
// each shard holding a key-ordered subsequence; a constraint whose driving
// relation is replicated would be reported identically by every shard, so
// shard 0 alone owns it and the other shards do not hold it at all. Owned
// gives each shard its constraint set: Σ's owned subsequence over Σ's full
// schema, so every shard still stores every relation placed on it.
//
// Order assigns tuples the same insertion ranks a single node's instance
// would (instances keep insertion order; deletes preserve it), which is
// what lets Merge reconstruct a detect.MergeKey for every wire violation
// and k-way merge the per-shard report-ordered streams into the exact
// global report order — sharded ≡ single-node, violation for violation.
package shard

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"

	cind "cind"

	"cind/internal/detect"
	"cind/internal/types"
)

// Placement says where one relation's tuples live.
type Placement struct {
	// Partitioned is true when the relation is hash-partitioned; false
	// means every shard holds a full replica.
	Partitioned bool
	// Cols are the projection columns (sorted schema indices) the
	// partition hash covers. Empty unless Partitioned.
	Cols []int
}

// xset is one distinct (relation, sorted X columns) CFD grouping — the
// engine's detection-group identity, which Order tracks first-seen ranks
// for.
type xset struct {
	rel  string
	cols []int
}

// conInfo is the per-constraint routing metadata Plan precomputes.
type conInfo struct {
	id       string
	kind     int // 0 CFD, 1 CIND — detect.MergeKey.Kind
	idx      int // index within the kind, input order
	rel      string
	arity    int  // the driving relation's arity: a witness's width
	ownerAll bool // driving relation partitioned: every shard owns a slice
	xs       int  // CFD: index into Plan.xsets; -1 for a CIND
}

// Plan is the sharding layout of one constraint set over n shards:
// relation placements, per-constraint ownership, and the X-set table the
// order tracker maintains group ranks for. Immutable after NewPlan.
type Plan struct {
	set *cind.ConstraintSet
	n   int
	// rest is the constraint set every shard but shard 0 owns: the
	// constraints whose driving relation is partitioned, in set order.
	rest *cind.ConstraintSet

	placements map[string]Placement
	cons       map[string]*conInfo
	byKey      [2][]*conInfo // cons by detect.MergeKey Kind and Constraint
	xsets      []xset
	relXsets   map[string][]int // relation -> indices into xsets
}

// NewPlan computes the layout for set over n shards. n must be >= 1.
func NewPlan(set *cind.ConstraintSet, n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: plan over %d shards", n)
	}
	p := &Plan{
		set:        set,
		n:          n,
		placements: make(map[string]Placement),
		cons:       make(map[string]*conInfo),
		relXsets:   make(map[string][]int),
	}
	sch := set.Schema()

	rhs := make(map[string]bool)
	for _, c := range set.CINDs() {
		rhs[c.RHSRel] = true
	}
	// xAttrs[rel] is the running intersection of X attribute sets of the
	// CFDs on rel; nil means no CFD seen yet.
	xAttrs := make(map[string]map[string]bool)
	for _, c := range set.CFDs() {
		cur := make(map[string]bool, len(c.X))
		for _, a := range c.X {
			cur[a] = true
		}
		if prev, ok := xAttrs[c.Rel]; ok {
			for a := range prev {
				if !cur[a] {
					delete(prev, a)
				}
			}
		} else {
			xAttrs[c.Rel] = cur
		}
	}
	for _, rel := range sch.Relations() {
		name := rel.Name()
		switch {
		case rhs[name]:
			p.placements[name] = Placement{}
		case xAttrs[name] != nil:
			inter := xAttrs[name]
			if len(inter) == 0 {
				// CFDs with disjoint X sets: no column set keeps every X
				// group whole, so the relation must be replicated.
				p.placements[name] = Placement{}
				continue
			}
			attrs := make([]string, 0, len(inter))
			for a := range inter {
				attrs = append(attrs, a)
			}
			cols := rel.Cols(attrs)
			sort.Ints(cols)
			p.placements[name] = Placement{Partitioned: true, Cols: cols}
		default:
			cols := make([]int, rel.Arity())
			for i := range cols {
				cols[i] = i
			}
			p.placements[name] = Placement{Partitioned: true, Cols: cols}
		}
	}

	xsetIdx := make(map[string]int)
	for i, c := range set.CFDs() {
		rel, _ := sch.Relation(c.Rel)
		cols := rel.Cols(c.X)
		sort.Ints(cols)
		key := c.Rel + "\x00" + fmt.Sprint(cols)
		xs, ok := xsetIdx[key]
		if !ok {
			xs = len(p.xsets)
			xsetIdx[key] = xs
			p.xsets = append(p.xsets, xset{rel: c.Rel, cols: cols})
			p.relXsets[c.Rel] = append(p.relXsets[c.Rel], xs)
		}
		if _, dup := p.cons[c.ID]; dup {
			return nil, fmt.Errorf("shard: duplicate constraint id %q", c.ID)
		}
		p.cons[c.ID] = &conInfo{id: c.ID, kind: 0, idx: i, rel: c.Rel, arity: rel.Arity(),
			ownerAll: p.placements[c.Rel].Partitioned, xs: xs}
		p.byKey[0] = append(p.byKey[0], p.cons[c.ID])
	}
	for i, c := range set.CINDs() {
		if _, dup := p.cons[c.ID]; dup {
			return nil, fmt.Errorf("shard: duplicate constraint id %q", c.ID)
		}
		rel, _ := sch.Relation(c.LHSRel)
		p.cons[c.ID] = &conInfo{id: c.ID, kind: 1, idx: i, rel: c.LHSRel, arity: rel.Arity(),
			ownerAll: p.placements[c.LHSRel].Partitioned, xs: -1}
		p.byKey[1] = append(p.byKey[1], p.cons[c.ID])
	}

	var rest []cind.Constraint
	for _, c := range set.Constraints() {
		if p.cons[constraintID(c)].ownerAll {
			rest = append(rest, c)
		}
	}
	rs, err := cind.NewConstraintSet(sch, rest...)
	if err != nil {
		return nil, fmt.Errorf("shard: owned constraint set: %w", err)
	}
	p.rest = rs
	return p, nil
}

// constraintID returns a constraint's identifier, whatever its kind.
func constraintID(c cind.Constraint) string {
	switch c := c.(type) {
	case *cind.CFD:
		return c.ID
	case *cind.CIND:
		return c.ID
	}
	return ""
}

// Shards returns the shard count the plan was computed for.
func (p *Plan) Shards() int { return p.n }

// Set returns the constraint set the plan routes.
func (p *Plan) Set() *cind.ConstraintSet { return p.set }

// Placement returns the placement of relation rel (the zero Placement —
// replicated — for an unknown relation, which NewPlan never produces for a
// schema relation).
func (p *Plan) Placement(rel string) Placement { return p.placements[rel] }

// ShardOf returns the shard a tuple of rel lives on, or -1 when the
// relation is replicated (the tuple lives on every shard).
func (p *Plan) ShardOf(rel string, t cind.Tuple) int {
	pl, ok := p.placements[rel]
	if !ok || !pl.Partitioned {
		return -1
	}
	h := fnv.New64a()
	var scratch [64]byte
	b := scratch[:0]
	for _, c := range pl.Cols {
		b = types.AppendKey(b[:0], t[c])
		h.Write(b)
	}
	return int(h.Sum64() % uint64(p.n))
}

// Owned returns the constraint set shard i holds: all of Σ for shard 0,
// and for every other shard the constraints whose driving relation is
// partitioned. Either keeps Σ's order and schema, so a shard's per-kind
// report order is a subsequence of the full one and its stream stays
// sorted in global detect.MergeKey order.
func (p *Plan) Owned(i int) *cind.ConstraintSet {
	if i == 0 {
		return p.set
	}
	return p.rest
}

// Keep reports whether shard owns the given constraint, i.e. whether a
// violation of it arriving from that shard belongs in the merged stream:
// always, for a constraint whose violations are partitioned; only from
// shard 0 — the designated owner — for a constraint every shard would
// report identically because its driving relation is replicated. A
// shard that holds its Owned set never streams a violation Keep rejects.
func (p *Plan) Keep(shard int, constraintID string) bool {
	ci, ok := p.cons[constraintID]
	return ok && ci.ownedBy(shard)
}

// Owns is Keep for a violation already keyed: whether shard owns the
// constraint the merge key names. k must come from this plan's Order.
func (p *Plan) Owns(shard int, k detect.MergeKey) bool {
	return p.byKey[k.Kind][k.Constraint].ownedBy(shard)
}

func (ci *conInfo) ownedBy(shard int) bool { return ci.ownerAll || shard == 0 }

// DataDir namespaces a shared data-directory root by shard index, so two
// router-managed shards started with the same -data DIR never collide on a
// dataset's WAL/snapshot directory.
func DataDir(root string, idx int) string {
	return filepath.Join(root, fmt.Sprintf("shard%d", idx))
}
