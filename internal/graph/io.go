package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// maxParseVertices caps the vertex count a parsed header (or an edge
// list's distinct-token count) may claim. The adjacency representation is
// a dense bitset per vertex — n²/8 bytes total — so a forged header
// claiming millions of vertices would buy gigabytes of allocation from a
// few input bytes; anything near this cap is already far beyond what the
// solver can process.
const maxParseVertices = 1 << 15

// checkParsedN validates a header-claimed vertex count.
func checkParsedN(format string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s: negative vertex count %d", format, n)
	}
	if n > maxParseVertices {
		return fmt.Errorf("%s: %d vertices exceeds the parser limit %d", format, n, maxParseVertices)
	}
	return nil
}

// ReadEdgeList parses a plain edge list: one "u v" pair per line, with
// vertices named by arbitrary tokens. Lines starting with '#' and blank
// lines are skipped. Vertex numbers are assigned in order of first
// appearance; original tokens are kept as names.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	type edge struct{ u, v string }
	var edges []edge
	index := map[string]int{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("edge list line %d: want 2 tokens, got %d", line, len(fields))
		}
		for _, tok := range fields {
			if _, ok := index[tok]; !ok {
				if len(order) >= maxParseVertices {
					return nil, fmt.Errorf("edge list line %d: more than %d distinct vertices", line, maxParseVertices)
				}
				index[tok] = len(order)
				order = append(order, tok)
			}
		}
		edges = append(edges, edge{fields[0], fields[1]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := New(len(order))
	for v, name := range order {
		g.SetName(v, name)
	}
	for _, e := range edges {
		if e.u == e.v {
			continue
		}
		g.AddEdge(index[e.u], index[e.v])
	}
	return g, nil
}

// ReadDIMACS parses the DIMACS graph-coloring format used by the PACE and
// DIMACS benchmarks: "p edge n m" header, "e u v" edge lines, 1-based
// vertices, "c" comment lines.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "p":
			if len(fields) < 4 {
				return nil, fmt.Errorf("dimacs line %d: malformed problem line", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dimacs line %d: %v", line, err)
			}
			if err := checkParsedN("dimacs", n); err != nil {
				return nil, err
			}
			g = New(n)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("dimacs line %d: edge before problem line", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("dimacs line %d: malformed edge", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("dimacs line %d: bad vertex numbers", line)
			}
			if u < 1 || v < 1 || u > g.Universe() || v > g.Universe() {
				return nil, fmt.Errorf("dimacs line %d: vertex out of range", line)
			}
			if u != v {
				g.AddEdge(u-1, v-1)
			}
		default:
			return nil, fmt.Errorf("dimacs line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	return g, nil
}

// ReadPACE parses the PACE ".gr" treewidth format: "p tw n m" header,
// bare "u v" edge lines, 1-based vertices, "c" comment lines.
func ReadPACE(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "p" {
			if len(fields) < 4 {
				return nil, fmt.Errorf("pace line %d: malformed problem line", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("pace line %d: %v", line, err)
			}
			if err := checkParsedN("pace", n); err != nil {
				return nil, err
			}
			g = New(n)
			continue
		}
		if g == nil {
			return nil, fmt.Errorf("pace line %d: edge before problem line", line)
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("pace line %d: malformed edge", line)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pace line %d: bad vertex numbers", line)
		}
		if u < 1 || v < 1 || u > g.Universe() || v > g.Universe() {
			return nil, fmt.Errorf("pace line %d: vertex out of range", line)
		}
		if u != v {
			g.AddEdge(u-1, v-1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("pace: missing problem line")
	}
	return g, nil
}

// ReadFormat reads one graph from r in the named format: "edges"
// (ReadEdgeList), "dimacs" (ReadDIMACS), "pace" (ReadPACE) or "graph6"
// (the first graph ReadGraph6 finds; input holding none is an error).
func ReadFormat(r io.Reader, format string) (*Graph, error) {
	switch format {
	case "edges":
		return ReadEdgeList(r)
	case "dimacs":
		return ReadDIMACS(r)
	case "pace":
		return ReadPACE(r)
	case "graph6":
		gs, err := ReadGraph6(r)
		if err != nil {
			return nil, err
		}
		if len(gs) == 0 {
			return nil, fmt.Errorf("graph6 input holds no graphs")
		}
		return gs[0], nil
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

// WritePACE writes g in the PACE ".gr" format over its active vertices.
// Inactive universe slots are still counted in the header so the file
// round-trips to an isomorphic graph when all vertices are active.
func WritePACE(w io.Writer, g *Graph) error {
	if _, err := fmt.Fprintf(w, "p tw %d %d\n", g.Universe(), g.NumEdges()); err != nil {
		return err
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		if _, err := fmt.Fprintf(w, "%d %d\n", e[0]+1, e[1]+1); err != nil {
			return err
		}
	}
	return nil
}
