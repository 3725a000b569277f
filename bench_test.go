// Benchmarks regenerating the paper's quantitative results, one per table
// or figure (see DESIGN.md's experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// The harness in internal/bench prints the full paper-style tables;
// cmd/lufbench is the standalone driver.
package luf_test

import (
	"fmt"
	"slices"
	"testing"

	"luf"
	"luf/internal/analyzer"
	acorpus "luf/internal/analyzer/corpus"
	"luf/internal/bench"
	"luf/internal/cfg"
	"luf/internal/core"
	"luf/internal/group"
	"luf/internal/lang"
	"luf/internal/solver"
	scorpus "luf/internal/solver/corpus"
	"luf/internal/wrel"
)

// BenchmarkTable1 runs the Section 7.1 solver comparison (BASE vs
// LABELED-UF vs GROUP-ACTION) on a reduced corpus; cmd/lufbench -exp
// table1 prints the full table.
func BenchmarkTable1(b *testing.B) {
	cfg := bench.DefaultTable1()
	cfg.Corpus.Linear, cfg.Corpus.Offsets, cfg.Corpus.FTerm = 40, 10, 10
	cfg.Corpus.SlowConv, cfg.Corpus.MulFree = 10, 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bench.RunTable1(cfg)
		if len(res.Unsound) > 0 {
			b.Fatal("unsound verdicts")
		}
	}
}

// BenchmarkSolverVariant measures each variant on each corpus family.
func BenchmarkSolverVariant(b *testing.B) {
	families := map[string][]*solver.Problem{}
	cfg := scorpus.Config{Seed: 11, Linear: 5, Offsets: 5, FTerm: 5, SlowConv: 5, MulFree: 5}
	for _, p := range scorpus.Generate(cfg) {
		fam := p.Name[:len(p.Name)-5]
		families[fam] = append(families[fam], p)
	}
	for _, fam := range []string{"linear", "offsets", "fterm", "slowconv", "mulfree"} {
		for _, v := range bench.Variants {
			b.Run(fmt.Sprintf("%s/%s", fam, v), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, p := range families[fam] {
						solver.Solve(p, v, solver.Options{MaxSteps: 4000, MaxVarUpdates: 150})
					}
				}
			})
		}
	}
}

// BenchmarkSec72 runs the Section 7.2 analyzer comparison on a reduced
// corpus at both propagation depths.
func BenchmarkSec72(b *testing.B) {
	for _, depth := range []int{1000, 2} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.RunSec72(bench.Sec72Config{NumPrograms: 40, Depth: depth})
			}
		})
	}
}

// BenchmarkAnalyzerFigure8 measures a single Figure 8 analysis with and
// without the LUF domain (the per-program overhead of Section 7.2).
func BenchmarkAnalyzerFigure8(b *testing.B) {
	src := acorpus.Handcrafted()[0].Src
	prog := lang.MustParse(src)
	for _, useLUF := range []bool{false, true} {
		name := "baseline"
		if useLUF {
			name = "luf"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := cfg.Build(prog)
				dom := cfg.ToSSA(g)
				analyzer.Analyze(g, dom, analyzer.DefaultConfig(useLUF))
			}
		})
	}
}

// BenchmarkAnalyzeMedianBand parses, builds and analyzes, with the LUF
// domain at depth 1000, the §7.2 corpus programs that rank between the
// 35th and 65th percentile by SSA instruction count: the programs the
// paper-analyzer benchmark's median operation measures. Profile this
// benchmark, not BenchmarkSec72's corpus mean, to find that operation's
// costs. The band is chosen by instruction count, so it is the same on
// every run.
func BenchmarkAnalyzeMedianBand(b *testing.B) {
	band := medianBand(acorpus.Scaled(bench.DefaultSec72().NumPrograms))
	b.ReportAllocs()
	for b.Loop() {
		for _, src := range band {
			g := cfg.Build(lang.MustParse(src))
			analyzer.Analyze(g, cfg.ToSSA(g), analyzer.DefaultConfig(true))
		}
	}
	b.ReportMetric(float64(len(band)), "programs/op")
}

// medianBand returns the sources of the programs ranked from the 35th to
// the 65th percentile by SSA instruction count, ties in corpus order.
func medianBand(programs []acorpus.Program) []string {
	counts := make([]int, len(programs))
	order := make([]int, len(programs))
	for i, p := range programs {
		order[i] = i
		for _, blk := range cfg.Build(lang.MustParse(p.Src)).Blocks {
			counts[i] += len(blk.Instrs)
		}
	}
	slices.SortStableFunc(order, func(i, j int) int { return counts[i] - counts[j] })
	var band []string
	for _, i := range order[len(order)*35/100 : len(order)*65/100] {
		band = append(band, programs[i].Src)
	}
	return band
}

// BenchmarkClosure compares transitive-closure maintenance across
// representations (the §2 motivation): each iteration runs labeled
// union-find, DBM closure and generic saturation on the same constraint
// set (the per-structure split is printed by `lufbench -exp scaling`);
// the O(n³) baselines dominate the time at larger n.
func BenchmarkClosure(b *testing.B) {
	for _, n := range []int{32, 128, 256} {
		b.Run(fmt.Sprintf("all-three/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.RunScaling([]int{n}, 100)
			}
		})
	}
}

// BenchmarkLUFOps measures the primitive operations.
func BenchmarkLUFOps(b *testing.B) {
	b.Run("AddRelation", func(b *testing.B) {
		uf := luf.New[int](luf.Delta{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			uf.AddRelation(i, i+1, 1)
		}
	})
	b.Run("GetRelation", func(b *testing.B) {
		uf := luf.New[int](luf.Delta{})
		const n = 1 << 16
		for i := 0; i < n-1; i++ {
			uf.AddRelation(i, i+1, 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			uf.GetRelation(i%n, (i*7)%n)
		}
	})
	b.Run("AddRelationTVPE", func(b *testing.B) {
		uf := luf.New[int](luf.TVPE{})
		l := luf.AffineInt(3, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			uf.AddRelation(i, i+1, l)
		}
	})
}

// BenchmarkPersistent measures the persistent variant and the Inter
// abstract join of Appendix A.
func BenchmarkPersistent(b *testing.B) {
	b.Run("AddRelation", func(b *testing.B) {
		p := luf.NewPersistent[int64](luf.Delta{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _ = p.AddRelation(i, i+1, 1, nil)
		}
	})
	for _, n := range []int{1024, 8192} {
		for _, delta := range []int{4, 64} {
			b.Run(fmt.Sprintf("Inter/n=%d/delta=%d", n, delta), func(b *testing.B) {
				base := luf.NewPersistent[int64](luf.Delta{})
				for i := 0; i < n-1; i++ {
					base, _ = base.AddRelation(i, i+1, 1, nil)
				}
				x, y := base, base
				for k := 0; k < delta; k++ {
					x, _ = x.AddRelation(k*13%n, n+2*k, 5, nil)
					y, _ = y.AddRelation(k*17%n, n+2*k+1, 7, nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.Inter(x, y)
				}
			})
		}
	}
}

// BenchmarkAblationPathCompression quantifies the effect of disabling
// path compression (a design choice DESIGN.md calls out).
func BenchmarkAblationPathCompression(b *testing.B) {
	build := func(compress bool) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var opts []core.Option[int, group.DeltaLabel]
				if !compress {
					opts = append(opts, core.WithoutPathCompression[int, group.DeltaLabel]())
				}
				uf := core.New[int, group.DeltaLabel](group.Delta{}, opts...)
				const n = 4096
				for k := 1; k < n; k++ {
					uf.AddRelation(k-1, k, 1)
				}
				for q := 0; q < n; q++ {
					uf.GetRelation(0, q)
				}
			}
		}
	}
	b.Run("with-compression", build(true))
	b.Run("without-compression", build(false))
}

// BenchmarkConcurrentQueryBatch measures the serving layer's batch
// query path at several worker counts on a loaded structure;
// cmd/lufbench -exp concurrent runs the full sequential-vs-parallel
// comparison (including the latency-overlap serving workload) and
// writes BENCH_concurrent.json.
func BenchmarkConcurrentQueryBatch(b *testing.B) {
	const n = 4096
	uf := luf.NewConcurrent[int](luf.Delta{})
	for k := 1; k < n; k++ {
		uf.AddRelation(k-1, k, 1)
	}
	qs := make([]luf.BatchQuery[int], n)
	for q := range qs {
		qs[q] = luf.BatchQuery[int]{N: 0, M: q}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				uf.QueryBatch(qs, luf.BatchOptions{Workers: workers})
			}
		})
	}
}

// BenchmarkDBMClose isolates the O(n³) baseline closure.
func BenchmarkDBMClose(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := wrel.NewDBM(n)
				for k := 1; k < n; k++ {
					d.AddDiff(k-1, k, luf.QFrac(1, 1), luf.QFrac(1, 1))
				}
				b.StartTimer()
				d.Close()
			}
		})
	}
}
