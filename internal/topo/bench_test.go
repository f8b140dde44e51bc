package topo

import (
	"math"
	"testing"
)

// BenchmarkBuildRGG100k measures spatial-hash construction of a
// 10⁵-node random geometric graph: placement, bucket-grid neighbour
// discovery, CSR assembly and the union-find connectivity check, at the
// density the scale tests use.
func BenchmarkBuildRGG100k(b *testing.B) {
	const n = 100_000
	side := math.Sqrt(n) * DefaultSpacing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := RandomGeometric(n, side, side, 2.2*DefaultSpacing, 61+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if g.Len() != n {
			b.Fatalf("built %d nodes, want %d", g.Len(), n)
		}
	}
	reportPerNode(b, n)
}

// BenchmarkBuildGrid1M measures spatial-hash construction of the
// million-node (1000×1000) grid the scale path is sized for.
func BenchmarkBuildGrid1M(b *testing.B) {
	const side = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := DefaultGrid(side)
		if err != nil {
			b.Fatal(err)
		}
		if g.Len() != side*side {
			b.Fatalf("built %d nodes, want %d", g.Len(), side*side)
		}
	}
	reportPerNode(b, side*side)
}

// reportPerNode adds build ns/node, the size-independent number that stays
// comparable when the benchmarked topology size changes.
func reportPerNode(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
}
