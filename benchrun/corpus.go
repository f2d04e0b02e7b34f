package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hyper"
	"repro/internal/service"
)

// op is the shape of one visit: which endpoint it drives and how the
// client follows up on the first response.
type op int

const (
	opStream  op = iota // POST /v1/enumerate with stream:true; one NDJSON response
	opPage              // POST page_size 10, two GET …/next, then DELETE
	opBatch             // POST /v1/batch, then DELETE each item's session
	opDiverse           // POST /v1/enumerate?diverse=5&window=40
	opCSP               // POST /v1/csp with solve:true, then DELETE the session
	opHyper             // POST /v1/hypergraph, then DELETE the session
)

// visit is one unit of offered load: the requests one client sends in a
// row. Its latency runs from when it was due to the last byte of its last
// response.
type visit struct {
	id    int
	class string
	op    op
	path  string // POST target, query included
	body  []byte
	probs []*problem // one per problem in the body
}

// Sizes of the generated requests.
const (
	coldK         = 20 // max_results of a cold-solve request
	pageSize      = 10 // page visit: first page and each GET …/next
	pageFollowUps = 2
	batchCopies   = 8
	batchPageSize = 5
	streamResults = 100 // max_results of a warm NDJSON visit
	diverseK      = 5
	diverseWindow = 40
	warmDepth     = 100 // deepest rank any warm visit reads, plus one
	templateSeed  = 1   // warm-serve templates are fixed; the seed varies everything else
)

// hashVisits digests the generated request sequence: every visit's
// class, target and body, in order. Two runs with the same seed and
// length print the same digest.
func hashVisits(vs []*visit) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%s %s %d\n", v.class, v.path, len(v.body))
		h.Write(v.body)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// clientProblem is the checker's view of a graph as sent.
func clientProblem(g *graph.Graph) *problem {
	return &problem{n: g.Universe(), edges: g.Edges(), ranked: true}
}

func edgeRequest(g *graph.Graph, cost string) service.EnumerateRequest {
	return service.EnumerateRequest{N: g.Universe(), Edges: g.Edges(), Cost: cost}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchrun: marshal %T: %v", v, err))
	}
	return b
}

// shuffledBlock returns the classes of one block of visits, counts[i]
// copies of names[i], in a seeded random order. Whole blocks keep each
// class's share exact however long a run lasts.
func shuffledBlock(rng *rand.Rand, names []string, counts []int) []string {
	var out []string
	for i := range names {
		for j := 0; j < counts[i]; j++ {
			out = append(out, names[i])
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldGen generates cold-solve requests: every graph is new to the
// server and distinct from every earlier one up to isomorphism.
type coldGen struct {
	rng   *rand.Rand
	seen  map[string]bool
	block []string
	drawn map[string]int // graphs accepted so far, per class
	n     int
}

// coldClasses and coldCounts give one block of coldBlock requests the
// shares 40/15/15/15/15.
var (
	coldClasses = []string{"dp-gnp", "dp-csp", "dp-atoms", "dp-easy", "auto-mis"}
	coldCounts  = []int{8, 3, 3, 3, 3}
)

const coldBlock = 20

func newColdGen(seed int64) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}, drawn: map[string]int{}}
}

// graph draws the k-th graph of class. The size parameters, which set a
// request's cost far more than the random draw at a given size does, step
// through their ranges in a fixed cycle rather than being drawn, so every
// run — whatever its seed — sends the same mix of sizes; the seed picks
// the random graphs of those sizes and their order.
func (c *coldGen) graph(class string, k int) *graph.Graph {
	r := c.rng
	// step is the i-th of levels evenly spaced points in [lo, hi].
	step := func(i, levels int, lo, hi float64) float64 {
		return lo + (hi-lo)*float64(i%levels)/float64(levels-1)
	}
	switch class {
	case "dp-gnp": // 5 sizes × 8 densities, every pair once in 40 draws
		return gen.ConnectedGNP(r, 14+k%5, step(k, 8, 0.2, 0.45))
	case "dp-csp":
		return gen.CSPGrid(r, 4, 4, 2+k%4)
	case "dp-atoms": // 3 blob counts × 3 blob sizes
		return gen.CliqueChain(r, 4+k%3, 8+k/3%3, 2, 0.5)
	case "dp-easy":
		switch j := k / 3; k % 3 {
		case 0:
			return gen.TreePlusChords(r, 38+j%5, 2+j%3)
		case 1:
			return gen.MoralizedDAG(r, 28+j%5, 2)
		default:
			return gen.QueryGaifman(r, gen.QueryShape(j%4), 5+j%4, 3+j%2)
		}
	case "auto-mis": // 9 sizes × 4 densities
		return gen.ConnectedGNP(r, 28+k%9, step(k, 4, 0.25, 0.35))
	}
	panic("benchrun: unknown cold class " + class)
}

func (c *coldGen) next() *visit {
	if len(c.block) == 0 {
		c.block = shuffledBlock(c.rng, coldClasses, coldCounts)
	}
	class := c.block[0]
	c.block = c.block[1:]
	var g *graph.Graph
	for try := 0; ; try++ {
		g = gen.Relabel(c.rng, c.graph(class, c.drawn[class]+try))
		// An auto-mis graph is one the separator probe routes to MIS; the
		// few draws at the low end of the size range that it keeps on the
		// DP would cost seconds of initialization and belong to no class.
		// A redraw moves on to the next sizes, so none can repeat forever.
		if class == "auto-mis" && core.SelectBackend(context.Background(), g, core.BackendAuto, 0) != core.BackendMIS {
			continue
		}
		canon, _, _ := g.CanonicalForm()
		if key := canon.Fingerprint(); !c.seen[key] {
			c.seen[key] = true
			break
		}
	}
	c.drawn[class]++
	cost := "width"
	if c.n%2 == 1 {
		cost = "fill"
	}
	req := edgeRequest(g, cost)
	req.Stream, req.MaxResults = true, coldK
	p := clientProblem(g)
	if class == "auto-mis" {
		req.Backend = "auto"
		p.ranked = false
	}
	v := &visit{id: c.n, class: class, op: opStream, path: "/v1/enumerate", body: mustJSON(req), probs: []*problem{p}}
	c.n++
	return v
}

// template is one popular warm-serve graph with its fixed cost.
type template struct {
	g    *graph.Graph
	cost string
	ref  []float64 // the template's own first warmDepth costs, from warm-up
}

// warmTemplates builds the eight enumerate templates from a fixed seed,
// so every run serves the same working set and only the traffic varies.
func warmTemplates() []*template {
	rng := rand.New(rand.NewSource(templateSeed))
	petersen, _ := gen.Named("petersen")
	return []*template{
		{g: gen.ConnectedGNP(rng, 14, 0.3), cost: "fill"},
		{g: gen.Cycle(9), cost: "fill"},
		{g: gen.Grid(3, 4), cost: "width"},
		{g: gen.CirculantGraph(10, []int{1, 3}), cost: "lex"},
		{g: petersen, cost: "width"},
		{g: gen.CliqueChain(rng, 4, 10, 2, 0.5), cost: "fill"},
		{g: gen.TreePlusChords(rng, 40, 3), cost: "fill"},
		{g: gen.MoralizedDAG(rng, 30, 3), cost: "width"},
	}
}

// cspTemplate is a 3-colouring of the Petersen graph (chromatic number 3,
// so it is satisfiable).
func cspTemplate() (*graph.Graph, []int) {
	g, _ := gen.Named("petersen")
	doms := make([]int, g.Universe())
	for i := range doms {
		doms[i] = 3
	}
	return g, doms
}

// colouring returns the x≠y constraints of a 3-colouring of g.
func colouring(g *graph.Graph) []service.CSPConstraint {
	var allowed [][2]int
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if a != b {
				allowed = append(allowed, [2]int{a, b})
			}
		}
	}
	var out []service.CSPConstraint
	for _, e := range g.Edges() {
		out = append(out, service.CSPConstraint{Scope: e, Allowed: allowed})
	}
	return out
}

// hyperTemplate is a join schema: six ternary relations in a ring, each
// sharing one variable with the next. Its primal graph's maximal cliques
// are exactly the relations, so every relabeling canonicalizes to one
// hypergraph and shares one cache entry.
func hyperTemplate() [][]int {
	var out [][]int
	for i := 0; i < 6; i++ {
		out = append(out, []int{2 * i, 2*i + 1, (2*i + 2) % 12})
	}
	return out
}

func hyperPrimal(edges [][]int, n int) *graph.Graph {
	h := hyper.New(n)
	for _, e := range edges {
		h.AddEdge(e...)
	}
	return h.Primal()
}

// warmSet is the warm-serve working set with its warm-up references.
type warmSet struct {
	tpls     []*template
	cspG     *graph.Graph
	cspDoms  []int
	cspRef   []float64
	hyper    [][]int
	hyperRef []float64
}

// warmGen generates warm-serve visits over a warmed working set.
type warmGen struct {
	rng   *rand.Rand
	set   *warmSet
	block []string
	// deck holds, per class, the templates still to be dealt in the
	// current shuffled round: each class visits every template equally
	// often, so the mix of cheap and costly visits is the same in every
	// run.
	deck map[string][]*template
	n    int
}

// warmClasses and warmCounts give one block of 20 visits the shares
// 45/25/10/10/5/5.
var (
	warmClasses = []string{"page", "ndjson", "batch", "diverse", "csp", "hypergraph"}
	warmCounts  = []int{9, 5, 2, 2, 1, 1}
)

func newWarmGen(seed int64, set *warmSet) *warmGen {
	return &warmGen{rng: rand.New(rand.NewSource(seed)), set: set, deck: map[string][]*template{}}
}

// deal returns the next template for class from its shuffled round.
func (w *warmGen) deal(class string) *template {
	d := w.deck[class]
	if len(d) == 0 {
		d = append([]*template(nil), w.set.tpls...)
		w.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
	w.deck[class] = d[1:]
	return d[0]
}

// relabeled returns a fresh random relabeling of t's graph as a problem
// checked against t's reference costs.
func (w *warmGen) relabeled(t *template) (*graph.Graph, *problem) {
	g := gen.Relabel(w.rng, t.g)
	p := clientProblem(g)
	p.ref = t.ref
	return g, p
}

func (w *warmGen) next() *visit {
	if len(w.block) == 0 {
		w.block = shuffledBlock(w.rng, warmClasses, warmCounts)
	}
	class := w.block[0]
	w.block = w.block[1:]
	v := &visit{id: w.n, class: class, path: "/v1/enumerate"}
	w.n++
	var t *template
	switch class {
	case "page", "ndjson", "batch", "diverse":
		t = w.deal(class)
	}
	switch class {
	case "page":
		g, p := w.relabeled(t)
		req := edgeRequest(g, t.cost)
		req.PageSize = pageSize
		v.op, v.body, v.probs = opPage, mustJSON(req), []*problem{p}
	case "ndjson":
		g, p := w.relabeled(t)
		req := edgeRequest(g, t.cost)
		req.Stream, req.MaxResults = true, streamResults
		v.op, v.body, v.probs = opStream, mustJSON(req), []*problem{p}
	case "batch":
		var b service.BatchRequest
		for i := 0; i < batchCopies; i++ {
			g, p := w.relabeled(t)
			req := edgeRequest(g, t.cost)
			req.PageSize = batchPageSize
			b.Problems = append(b.Problems, req)
			v.probs = append(v.probs, p)
		}
		v.op, v.path, v.body = opBatch, "/v1/batch", mustJSON(b)
	case "diverse":
		g, p := w.relabeled(t)
		v.op, v.body, v.probs = opDiverse, mustJSON(edgeRequest(g, t.cost)), []*problem{p}
		v.path = "/v1/enumerate?diverse=" + strconv.Itoa(diverseK) + "&window=" + strconv.Itoa(diverseWindow)
	case "csp":
		g := gen.Relabel(w.rng, w.set.cspG)
		p := clientProblem(g)
		p.ref, p.csp = w.set.cspRef, colouring(g)
		req := service.CSPRequest{Domains: w.set.cspDoms, Constraints: p.csp, PageSize: pageSize, Solve: true}
		v.op, v.path, v.body, v.probs = opCSP, "/v1/csp", mustJSON(req), []*problem{p}
	case "hypergraph":
		perm := w.rng.Perm(12)
		var hes [][]int
		for _, e := range w.set.hyper {
			var he []int
			for _, x := range e {
				he = append(he, perm[x])
			}
			hes = append(hes, he)
		}
		p := clientProblem(hyperPrimal(hes, 12))
		p.ref = w.set.hyperRef
		req := service.EnumerateRequest{Hyperedges: hes, PageSize: pageSize}
		v.op, v.path, v.body, v.probs = opHyper, "/v1/hypergraph", mustJSON(req), []*problem{p}
	}
	return v
}

// orbitGraph is one member of the symmetric orbit-sym corpus.
type orbitGraph struct {
	name  string
	g     *graph.Graph
	total int64 // minimal triangulations, counted in set-up
}

func disjoint(gs ...*graph.Graph) *graph.Graph {
	n := 0
	for _, g := range gs {
		n += g.Universe()
	}
	out := graph.New(n)
	off := 0
	for _, g := range gs {
		for _, e := range g.Edges() {
			out.AddEdge(e[0]+off, e[1]+off)
		}
		off += g.Universe()
	}
	return out
}

func prism(k int) *graph.Graph {
	g := graph.New(2 * k)
	for i := 0; i < k; i++ {
		g.AddEdge(i, (i+1)%k)
		g.AddEdge(k+i, k+(i+1)%k)
		g.AddEdge(i, k+i)
	}
	return g
}

// orbitCorpus lists the symmetric graphs, pairwise non-isomorphic so that
// no two share a canonical cache entry within a pass. The prism over C4
// is the cube, so the triangular prism stands in for it.
func orbitCorpus() []*orbitGraph {
	named := func(s string) *graph.Graph { g, _ := gen.Named(s); return g }
	return []*orbitGraph{
		{name: "c7", g: gen.Cycle(7)},
		{name: "c8", g: gen.Cycle(8)},
		{name: "c9-1-3", g: gen.CirculantGraph(9, []int{1, 3})},
		{name: "c10-1-4", g: gen.CirculantGraph(10, []int{1, 4})},
		{name: "c12-1-5", g: gen.CirculantGraph(12, []int{1, 5})},
		{name: "2xc5", g: disjoint(gen.Cycle(5), gen.Cycle(5))},
		{name: "3xc5", g: disjoint(gen.Cycle(5), gen.Cycle(5), gen.Cycle(5))},
		{name: "2xc7", g: disjoint(gen.Cycle(7), gen.Cycle(7))},
		{name: "prism3", g: prism(3)},
		{name: "prism5", g: prism(5)},
		{name: "grid3x3", g: gen.Grid(3, 3)},
		{name: "grid2x6", g: gen.Grid(2, 6)},
		{name: "petersen", g: named("petersen")},
		{name: "cube", g: named("cube")},
		{name: "grotzsch", g: named("grotzsch")},
	}
}

var orbitCosts = []string{"width", "fill", "lex"}

// orbitGen generates orbit-sym passes: each pass drains every corpus
// graph under every cost once, in a seeded order and a fresh labeling.
type orbitGen struct {
	rng    *rand.Rand
	corpus []*orbitGraph
	n      int
}

func (o *orbitGen) pass() []*visit {
	var out []*visit
	for _, og := range o.corpus {
		for _, cost := range orbitCosts {
			g := gen.Relabel(o.rng, og.g)
			p := clientProblem(g)
			p.total = og.total
			req := edgeRequest(g, cost)
			req.Stream = true
			out = append(out, &visit{class: og.name + "/" + cost, op: opStream, path: "/v1/enumerate?orbits=true",
				body: mustJSON(req), probs: []*problem{p}})
		}
	}
	o.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for _, v := range out {
		v.id = o.n
		o.n++
	}
	return out
}
