// Benchmarks regenerating a representative point of every table and figure
// of the paper's evaluation (§6). Each benchmark measures one query on the
// workload stand-in datasets; cmd/icbench runs the full parameter sweeps
// and prints the complete series.
//
// Naming: BenchmarkFigN_<dataset>_<algorithm>[_<params>]. Figure 17 is a
// measurement of visited-graph size rather than time; its benchmark reports
// the fraction via b.ReportMetric.
package influcomm

import (
	"context"
	"testing"
	"time"

	"influcomm/internal/baseline"
	"influcomm/internal/core"
	"influcomm/internal/gen"
	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/kcore"
	"influcomm/internal/semiext"
	"influcomm/internal/truss"
	"influcomm/internal/workload"
)

func loadBench(b *testing.B, name string) *graph.Graph {
	b.Helper()
	d, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Load()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func edgeFileBench(b *testing.B, name string) string {
	b.Helper()
	d, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	path, err := d.EdgeFile()
	if err != nil {
		b.Fatal(err)
	}
	return path
}

// --- Table 1: graph statistics ---------------------------------------------

func BenchmarkTable1Stats(b *testing.B) {
	g := loadBench(b, "email")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Statistics()
		_ = kcore.MaxCore(g)
	}
}

// --- Figure 8: against global search, γ=10, k=10 ----------------------------

func BenchmarkFig8_Email_OnlineAll(b *testing.B) {
	g := loadBench(b, "email")
	gamma := workload.ClampGamma(10, kcore.MaxCore(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.OnlineAll(g, 10, gamma); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_Email_Forward(b *testing.B) {
	g := loadBench(b, "email")
	gamma := workload.ClampGamma(10, kcore.MaxCore(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.Forward(g, 10, gamma); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_Email_LocalSearchP(b *testing.B) {
	g := loadBench(b, "email")
	gamma := workload.ClampGamma(10, kcore.MaxCore(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKProgressive(g, 10, gamma, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_Twitter_Forward(b *testing.B) {
	g := loadBench(b, "twitter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.Forward(g, 10, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_Twitter_LocalSearchP(b *testing.B) {
	g := loadBench(b, "twitter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKProgressive(g, 10, 10, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 9: k=10, vary γ --------------------------------------------------

func BenchmarkFig9_Wiki_LocalSearchP_Gamma5(b *testing.B)  { fig9(b, 5) }
func BenchmarkFig9_Wiki_LocalSearchP_Gamma12(b *testing.B) { fig9(b, 12) }

func fig9(b *testing.B, gamma int32) {
	g := loadBench(b, "wiki")
	gamma = workload.ClampGamma(gamma, kcore.MaxCore(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKProgressive(g, 10, gamma, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10: large k and γ ------------------------------------------------

func BenchmarkFig10_Arabic_Forward_K1000(b *testing.B) {
	g := loadBench(b, "arabic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.Forward(g, 1000, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_Arabic_LocalSearchP_K1000(b *testing.B) {
	g := loadBench(b, "arabic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKProgressive(g, 1000, 16, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 11: against Backward ---------------------------------------------

func BenchmarkFig11_UK_Backward_K100(b *testing.B) {
	g := loadBench(b, "uk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.Backward(g, 100, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_UK_LocalSearchP_K100(b *testing.B) {
	g := loadBench(b, "uk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKProgressive(g, 100, 10, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 12: counting ablation (LocalSearch-OA) ---------------------------

func BenchmarkFig12_Wiki_LocalSearchOA(b *testing.B) {
	g := loadBench(b, "wiki")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.LocalSearchOA(g, 10, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12_Wiki_LocalSearchP(b *testing.B) {
	g := loadBench(b, "wiki")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKProgressive(g, 10, 10, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 13: growth ratio δ -----------------------------------------------

func BenchmarkFig13_UK_Delta1_5(b *testing.B) { fig13(b, 1.5) }
func BenchmarkFig13_UK_Delta2(b *testing.B)   { fig13(b, 2) }
func BenchmarkFig13_UK_Delta16(b *testing.B)  { fig13(b, 16) }
func BenchmarkFig13_UK_Delta128(b *testing.B) { fig13(b, 128) }

func fig13(b *testing.B, delta float64) {
	g := loadBench(b, "uk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKProgressive(g, 10, 10, core.Options{Delta: delta}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 14: progressive latency to the first community -------------------

func BenchmarkFig14_Arabic_FirstCommunity_LocalSearchP(b *testing.B) {
	g := loadBench(b, "arabic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Stream(g, 10, core.Options{}, func(*core.Community) bool { return false })
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14_Arabic_Top128_LocalSearch(b *testing.B) {
	g := loadBench(b, "arabic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopK(g, 128, 10, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 15: progressive vs non-progressive total time --------------------

func BenchmarkFig15_Arabic_LocalSearch_K100(b *testing.B) {
	g := loadBench(b, "arabic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopK(g, 100, 10, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15_Arabic_LocalSearchP_K100(b *testing.B) {
	g := loadBench(b, "arabic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKProgressive(g, 100, 10, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 16: semi-external total time -------------------------------------

// The representative semi-external point uses livejournal: OnlineAll-SE on
// the arabic/twitter stand-ins takes minutes per run (that multi-minute
// behavior is itself the figure's message; cmd/icbench measures it there).
func BenchmarkFig16_Livejournal_OnlineAllSE(b *testing.B) {
	path := edgeFileBench(b, "livejournal")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := semiext.OnlineAllSE(path, 10, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16_Livejournal_LocalSearchSE(b *testing.B) {
	path := edgeFileBench(b, "livejournal")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := semiext.LocalSearchSE(path, 10, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16_Arabic_LocalSearchSE(b *testing.B) {
	path := edgeFileBench(b, "arabic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := semiext.LocalSearchSE(path, 10, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 17: semi-external visited graph size -----------------------------

func BenchmarkFig17_Arabic_VisitedFraction(b *testing.B) {
	path := edgeFileBench(b, "arabic")
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := semiext.LocalSearchSE(path, 10, 10)
		if err != nil {
			b.Fatal(err)
		}
		frac = st.VisitedFraction
	}
	b.ReportMetric(frac, "visited-fraction")
	b.ReportMetric(1.0, "onlineall-fraction")
}

// --- Figure 18: non-containment queries --------------------------------------

// Non-containment structure needs many disjoint dense regions, so these
// benchmarks use the planted-archipelago stand-in the harness' Figure 18
// uses (see EXPERIMENTS.md).
func archipelagoBench(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.PlantedArchipelago(500, 50, 0.4, 1807)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkFig18_Archipelago_ForwardNC(b *testing.B) {
	g := archipelagoBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.ForwardNonContainment(g, 10, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18_Archipelago_LocalSearchP_NC(b *testing.B) {
	g := archipelagoBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKProgressive(g, 10, 10, core.Options{NonContainment: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 19: γ-truss community search -------------------------------------

func BenchmarkFig19_Wiki_GlobalSearchTruss(b *testing.B) {
	g := loadBench(b, "wiki")
	ix := truss.NewIndex(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := truss.GlobalSearch(ix, 10, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19_Wiki_LocalSearchTruss(b *testing.B) {
	g := loadBench(b, "wiki")
	ix := truss.NewIndex(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := truss.LocalSearch(ix, 10, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblationArithmeticGrowth(b *testing.B) {
	g := loadBench(b, "uk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopK(g, 100, 10, core.Options{ArithmeticGrowth: 4096}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGeometricGrowth(b *testing.B) {
	g := loadBench(b, "uk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopK(g, 100, 10, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInitialTau_Heuristic(b *testing.B) {
	g := loadBench(b, "uk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopK(g, 10, 10, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInitialTau_WholeGraph(b *testing.B) {
	g := loadBench(b, "uk")
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopK(g, 10, 10, core.Options{InitialPrefix: n}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- IndexAll ablation (the index-based algorithm category of [26]) -----------

func BenchmarkIndexAll_Livejournal_Build(b *testing.B) {
	g := loadBench(b, "livejournal")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.BuildContext(context.Background(), g, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexAll_Livejournal_BuildParallel(b *testing.B) {
	g := loadBench(b, "livejournal")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexAll_Livejournal_Query(b *testing.B) {
	g := loadBench(b, "livejournal")
	ix, err := index.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.TopK(10, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ------------------------------------------------

func BenchmarkCountIC_Twitter(b *testing.B) {
	g := loadBench(b, "twitter")
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.CountIC(g, n, 10)
	}
}

func BenchmarkGammaCorePeel_Twitter(b *testing.B) {
	g := loadBench(b, "twitter")
	pl := kcore.NewPeeler(g.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.PrefixCore(g, g.NumVertices(), 10)
	}
}

func BenchmarkPrefixExtraction_Twitter(b *testing.B) {
	g := loadBench(b, "twitter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := g.PrefixForSize(g.Size() / 2)
		_ = g.PrefixSize(p)
	}
}

// BenchmarkPooledTopK compares the pooled query path (engines and CVS
// buffers reused via QueryPool) against the seed per-query path that builds
// a fresh engine — three O(n) slices — for every call. The pooled variant's
// allocs/op must stay far below the per-query variant: in steady state it
// allocates only the returned Result.
func BenchmarkPooledTopK(b *testing.B) {
	g := loadBench(b, "email")
	gamma := workload.ClampGamma(10, kcore.MaxCore(g))
	b.Run("PerQuery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.TopK(g, 10, gamma, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Pooled", func(b *testing.B) {
		pool := NewQueryPool(g)
		ctx := context.Background()
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pool.TopK(ctx, 10, int(gamma)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Non-containment queries scan far deeper than containment ones (their
	// keynodes are sparse), so this row is where carrying each round's
	// keynodes forward instead of re-cascading them shows.
	b.Run("NonContainment", func(b *testing.B) {
		pool := NewQueryPool(g)
		ctx := context.Background()
		opts := Options{NonContainment: true}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pool.TopKWithOptions(ctx, 10, int(gamma), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamLatency measures time-to-first-community, the headline
// metric of the progressive approach.
func BenchmarkStreamLatency_Twitter(b *testing.B) {
	g := loadBench(b, "twitter")
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		_, err := core.Stream(g, 10, core.Options{}, func(*core.Community) bool { return false })
		if err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
	}
	b.ReportMetric(float64(total.Microseconds())/float64(b.N), "µs/first-community")
}
