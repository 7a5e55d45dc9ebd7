package lint

import (
	"go/ast"
	"go/types"
)

// NoWallTime forbids wall-clock reads and global (shared-state) rand in
// the deterministic engine packages. Detection, reasoning, and
// generation must produce identical results for identical inputs — the
// whole differential-test architecture (single node vs shards vs SQL
// backend, PR-5's determinism incident) rests on it — so engines take
// seeded *rand.Rand values (rand.New(rand.NewSource(seed)) is allowed)
// and injected clocks only. The server, stream, wal, and exp packages
// are out of scope: flush deadlines, durability timestamps, and
// experiment timings are legitimately wall-clock.
var NoWallTime = &Analyzer{
	Name: "nowalltime",
	Doc:  "forbids time.Now/math-rand global state in deterministic engine packages",
	Dirs: []string{
		"internal/detect", "internal/chase", "internal/sat",
		"internal/consistency", "internal/implication", "internal/core",
		"internal/pattern", "internal/inference", "internal/memdb",
		"internal/sqlbackend", "internal/sqlgen", "internal/shard",
		"internal/gen", "internal/types", "internal/instance",
		"internal/depgraph", "internal/fd", "internal/ind", "internal/cfd",
		"internal/repair", "internal/views", "internal/constraint",
		"internal/schema", "internal/parser", "internal/bank",
		"internal/conc",
	},
	Run: runNoWallTime,
}

// wallClockFuncs are the time package functions that read or schedule
// against the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// seededRandFuncs are the math/rand constructors that yield an
// explicitly seeded generator — the allowed way in.
var seededRandFuncs = map[string]bool{"New": true, "NewSource": true}

func runNoWallTime(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods on Time/Rand values are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					p.Reportf(id.Pos(),
						"time.%s in a deterministic engine package: inject a clock or take timestamps at the caller", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !seededRandFuncs[fn.Name()] {
					p.Reportf(id.Pos(),
						"rand.%s uses the global generator: deterministic engines take a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", fn.Name())
				}
			}
			return true
		})
	}
}
