// Package exp is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 7) on synthetic stand-ins for
// the original datasets (see DESIGN.md for the substitution rationale).
// Budgets are configurable: the paper used 60 s / 30 min / 30 min budgets
// on a 48-core server; the defaults here are seconds-scale so the whole
// suite reruns in CI, and every metric that matters — who wins, by what
// factor, where the tractability boundary falls — is budget-relative.
package exp

import (
	"math/rand"
	"strconv"

	"repro/internal/gen"
	"repro/internal/graph"
)

// NamedGraph is one experiment instance.
type NamedGraph struct {
	Name  string
	Graph *graph.Graph
}

// Dataset is a named family of graphs, mirroring one row of Figure 5.
type Dataset struct {
	Name   string
	Graphs []NamedGraph
}

// Datasets instantiates the evaluation corpus from a seed. Families mirror
// the paper's: PIC2011-style graphical models (CSP, grids, DBN, object
// detection, image alignment, segmentation, Promedas, pedigree, Alchemy),
// TPC-H-style query Gaifman graphs, and PACE2016-style named graphs. Sizes
// are scaled so that — like in the paper — some families are fully
// tractable, some are borderline, and some blow past any budget.
func Datasets(seed int64) []Dataset {
	rng := rand.New(rand.NewSource(seed))
	named := func(names ...string) []NamedGraph {
		var out []NamedGraph
		for _, n := range names {
			g, err := gen.Named(n)
			if err != nil {
				panic(err)
			}
			out = append(out, NamedGraph{Name: n, Graph: g})
		}
		return out
	}
	var ds []Dataset

	// CSP: grid constraint graphs with extra long-range constraints.
	var csp []NamedGraph
	for i := 0; i < 4; i++ {
		csp = append(csp, NamedGraph{
			Name:  "csp-" + strconv.Itoa(i),
			Graph: gen.CSPGrid(rng, 4, 4, 4+i),
		})
	}
	ds = append(ds, Dataset{Name: "CSP", Graphs: csp})

	// Grids: pure grid models.
	ds = append(ds, Dataset{Name: "Grids", Graphs: []NamedGraph{
		{Name: "grid-3x4", Graph: gen.Grid(3, 4)},
		{Name: "grid-4x4", Graph: gen.Grid(4, 4)},
		{Name: "grid-4x5", Graph: gen.Grid(4, 5)},
	}})

	// DBN: moralized layered networks with few parents.
	var dbn []NamedGraph
	for i := 0; i < 4; i++ {
		dbn = append(dbn, NamedGraph{
			Name:  "dbn-" + strconv.Itoa(i),
			Graph: gen.MoralizedDAG(rng, 18+4*i, 2),
		})
	}
	ds = append(ds, Dataset{Name: "DBN", Graphs: dbn})

	// Object detection: small, fairly dense models — the family with the
	// tiny init and delay in Table 2.
	var obj []NamedGraph
	for i := 0; i < 5; i++ {
		obj = append(obj, NamedGraph{
			Name:  "objdet-" + strconv.Itoa(i),
			Graph: gen.ConnectedGNP(rng, 11+i, 0.4),
		})
	}
	ds = append(ds, Dataset{Name: "ObjectDetection", Graphs: obj})

	// Image alignment: mid-size, mid-density.
	var img []NamedGraph
	for i := 0; i < 3; i++ {
		img = append(img, NamedGraph{
			Name:  "align-" + strconv.Itoa(i),
			Graph: gen.ConnectedGNP(rng, 15+2*i, 0.3),
		})
	}
	ds = append(ds, Dataset{Name: "ImageAlignment", Graphs: img})

	// Segmentation: grids with extra couplings.
	ds = append(ds, Dataset{Name: "Segmentation", Graphs: []NamedGraph{
		{Name: "seg-0", Graph: gen.CSPGrid(rng, 5, 4, 6)},
		{Name: "seg-1", Graph: gen.CSPGrid(rng, 5, 5, 8)},
	}})

	// Promedas: larger sparse moralized networks — separators manageable,
	// PMCs borderline (the paper's "too slow due to a high number of
	// PMCs" family).
	var pro []NamedGraph
	for i := 0; i < 3; i++ {
		pro = append(pro, NamedGraph{
			Name:  "promedas-" + strconv.Itoa(i),
			Graph: gen.MoralizedDAG(rng, 34+4*i, 2),
		})
	}
	ds = append(ds, Dataset{Name: "Promedas", Graphs: pro})

	// Pedigree: big moralized networks with more parents — mostly
	// intractable, as in the paper.
	var ped []NamedGraph
	for i := 0; i < 3; i++ {
		ped = append(ped, NamedGraph{
			Name:  "pedigree-" + strconv.Itoa(i),
			Graph: gen.MoralizedDAG(rng, 55+5*i, 3),
		})
	}
	ds = append(ds, Dataset{Name: "Pedigree", Graphs: ped})

	// Alchemy: large dense Markov-logic-style graphs — all intractable in
	// the paper.
	var alc []NamedGraph
	for i := 0; i < 2; i++ {
		alc = append(alc, NamedGraph{
			Name:  "alchemy-" + strconv.Itoa(i),
			Graph: gen.ConnectedGNP(rng, 45+5*i, 0.3),
		})
	}
	ds = append(ds, Dataset{Name: "Alchemy", Graphs: alc})

	// TPC-H: conjunctive-query Gaifman graphs — tiny, always easy.
	ds = append(ds, Dataset{Name: "TPC-H", Graphs: []NamedGraph{
		{Name: "q-chain", Graph: gen.QueryGaifman(rng, gen.ChainQuery, 7, 3)},
		{Name: "q-star", Graph: gen.QueryGaifman(rng, gen.StarQuery, 6, 3)},
		{Name: "q-cycle", Graph: gen.QueryGaifman(rng, gen.CycleQuery, 6, 2)},
		{Name: "q-snowflake", Graph: gen.QueryGaifman(rng, gen.SnowflakeQuery, 8, 3)},
	}})

	// PACE2016 100s: small named/competition graphs.
	ds = append(ds, Dataset{Name: "PACE2016-100s",
		Graphs: named("petersen", "grotzsch", "cube", "wagner", "octahedron", "bull", "house")})

	// PACE2016 1000s: the larger competition-style graphs.
	pace1000 := named("moebius-kantor", "queen4")
	pace1000 = append(pace1000, NamedGraph{Name: "ktree-20-3", Graph: gen.KTree(rng, 20, 3, 6)})
	ds = append(ds, Dataset{Name: "PACE2016-1000s", Graphs: pace1000})

	return ds
}
