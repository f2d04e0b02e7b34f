package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/minsep"
)

func TestLoadGraphVariants(t *testing.T) {
	g, err := loadGraph("", "pace", "house")
	if err != nil || g.NumVertices() != 5 {
		t.Fatalf("named: %v %v", g, err)
	}
	if _, err := loadGraph("", "pace", ""); err == nil {
		t.Fatalf("empty input accepted")
	}
	if _, err := loadGraph("", "bogus", "house"); err != nil {
		t.Fatalf("named path should ignore format: %v", err)
	}
}

func TestVerdict(t *testing.T) {
	if v := verdict(0.5); !strings.Contains(v, "comfortable") {
		t.Fatalf("verdict(0.5) = %q", v)
	}
	if v := verdict(10); !strings.Contains(v, "stressed") {
		t.Fatalf("verdict(10) = %q", v)
	}
}

func TestLoadGraphGraph6(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c5.g6")
	if err := os.WriteFile(path, []byte(">>graph6<<Dhc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path, "graph6", "")
	if err != nil || g.NumVertices() != 5 || g.NumEdges() != 5 {
		t.Fatalf("graph6 C5: %v %v", g, err)
	}
}

// TestRatioLineEdgeless pins the report for graphs without edges: three
// isolated vertices have one minimal separator (the empty one) and a
// single vertex none, and neither ratio is a verdict on poly-MS.
func TestRatioLineEdgeless(t *testing.T) {
	for _, src := range []string{"p tw 3 0\n", "p tw 1 0\n"} {
		path := filepath.Join(t.TempDir(), "g.gr")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := loadGraph(path, "pace", "")
		if err != nil {
			t.Fatal(err)
		}
		if got := ratioLine(len(minsep.All(g)), g.NumEdges()); got != "minseps/edges: n/a (no edges)" {
			t.Fatalf("%q: %q", src, got)
		}
	}
	if got := ratioLine(3, 6); got != "minseps/edges: 0.50 (poly-MS looks comfortable)" {
		t.Fatalf("ratioLine(3, 6) = %q", got)
	}
}
