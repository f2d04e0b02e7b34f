package chordal_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/chordal"
	"repro/internal/graph"
	"repro/internal/vset"
)

// maskGraph builds the graph on n vertices whose edge set is the given
// bitmask over the n(n-1)/2 vertex pairs in lexicographic order.
func maskGraph(n int, mask int) *graph.Graph {
	g := graph.New(n)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mask&(1<<bit) != 0 {
				g.AddEdge(u, v)
			}
			bit++
		}
	}
	return g
}

// checkAgainstDefinitions compares Analyze on g with the brute-force
// definitions. By Dirac's theorem g is chordal iff every minimal
// separator is a clique; then the cliques must be the maximal cliques by
// subset enumeration and the separators the nonempty minimal separators.
func checkAgainstDefinitions(t *testing.T, g *graph.Graph, label string) {
	t.Helper()
	var seps []vset.Set
	isChordal := true
	for _, s := range bruteforce.AllMinimalSeparators(g) {
		if !g.IsClique(s) {
			isChordal = false
		}
		if !s.IsEmpty() {
			seps = append(seps, s)
		}
	}
	st, err := chordal.Analyze(g)
	if (err == nil) != isChordal {
		t.Errorf("%s: Analyze err = %v, Dirac says chordal = %v", label, err, isChordal)
		return
	}
	if chordal.IsChordal(g) != isChordal {
		t.Errorf("%s: IsChordal disagrees with Analyze", label)
	}
	if !isChordal {
		return
	}
	if want := bruteforce.MaximalCliques(g); !equalSets(st.Cliques, want) {
		t.Errorf("%s: cliques %v, want %v", label, st.Cliques, want)
	}
	if !equalSets(st.Seps, seps) {
		t.Errorf("%s: separators %v, want %v", label, st.Seps, seps)
	}
}

func equalSets(a, b []vset.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestAnalyzeAllSmallGraphs checks the one-pass search against the
// definitions on every labeled graph with up to 6 vertices, sharded
// across GOMAXPROCS goroutines.
func TestAnalyzeAllSmallGraphs(t *testing.T) {
	for n := 1; n <= 6; n++ {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			total := 1 << (n * (n - 1) / 2)
			workers := runtime.GOMAXPROCS(0)
			if workers > total {
				workers = total
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for mask := w; mask < total; mask += workers {
						if t.Failed() {
							return
						}
						checkAgainstDefinitions(t, maskGraph(n, mask), fmt.Sprintf("n=%d mask=%d", n, mask))
					}
				}()
			}
			wg.Wait()
		})
	}
}
