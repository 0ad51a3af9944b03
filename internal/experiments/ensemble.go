package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/rng"
	"repro/internal/serve"
)

func init() {
	register("ext-ensemble", "EXTENSION: K-member ensembles fused in one served solve vs K lone solves, one request in flight", extEnsemble)
}

// ensembleKs are the member counts ext-ensemble sweeps: every kernel
// width the serve tier dispatches.
var ensembleKs = []int{1, 2, 4, 8, 16, 32}

// ensemblePairs is the number of (K lone solves, one ensemble) pairs
// behind each row.
const ensemblePairs = 5

// extEnsemble measures ensemble fusion at the serving tier
// (Krasnopolsky, 1711.10622): one client submitting K right-hand sides
// as one /v1/ensemble request against the same client submitting them
// one at a time, with a single request in flight — the low-load limit,
// where traffic batching has nothing to coalesce. The operator is the
// serve_* workloads' density, the engine runs at its default tolerance
// and MaxBatch with its batching window priced as Figure 2a prices the
// host, and every member must come back bit for bit as its lone solve.
func extEnsemble(cfg Config) ([]*Table, error) {
	a := bcrs.Random(bcrs.RandomOptions{NB: cfg.MatrixNB, BlocksPerRow: 24, Seed: cfg.Seed})
	host := perf.EffectiveMachine(a)
	g := model.GSPMV{Machine: host, Shape: model.Shape{NB: a.NB(), NNZB: a.NNZB()}, K: model.DefaultK}
	e := serve.NewEngine(a, serve.Config{Model: &g})
	ctx := context.Background()
	defer e.Close(ctx)

	reqs := make([]serve.Req, ensembleKs[len(ensembleKs)-1])
	for i := range reqs {
		reqs[i].B = make([]float64, a.N())
		rng.New(cfg.Seed + uint64(i)).FillNormal(reqs[i].B)
	}
	t := &Table{
		Title: fmt.Sprintf("EXT: K-member ensembles vs K lone served solves, nb=%d, %.1f blocks/row, tol %g, one request in flight",
			a.NB(), a.BlocksPerRow(), e.Config().Tol),
		Header: []string{"K", "KernelM", "ms/ensemble", "member speedup", "model K/r(K)"},
		Notes: []string{
			fmt.Sprintf("member speedup: median over %d pairs of K lone Submits timed back to back with one SubmitEnsemble, K*T_lone/T_ens", ensemblePairs),
			fmt.Sprintf("model on this matrix's achievable rates: B=%.1f GB/s, F=%.1f Gflops (see EffectiveMachine); every member's X is bitwise its lone solve's", host.B/1e9, host.F/1e9),
		},
	}
	for _, k := range ensembleKs {
		members := reqs[:k]
		lone, ens := make([]serve.Result, k), []serve.Result(nil)
		var err error
		speedup, tEns := perf.TimePaired(ensemblePairs, func() {
			for i := 0; i < k && err == nil; i++ {
				lone[i], err = e.Submit(ctx, members[i])
			}
		}, func() {
			if err == nil {
				ens, err = e.SubmitEnsemble(ctx, members)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("K=%d: %w", k, err)
		}
		for i := range ens {
			if err := ens[i].Err; err != nil {
				return nil, fmt.Errorf("K=%d member %d: %w", k, i, err)
			}
			for j, v := range ens[i].X {
				if math.Float64bits(v) != math.Float64bits(lone[i].X[j]) {
					return nil, fmt.Errorf("K=%d member %d: x[%d] = %v, its lone solve's %v", k, i, j, v, lone[i].X[j])
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmtInt(k), fmtInt(ens[0].KernelM),
			fmt.Sprintf("%.2f", tEns*1e3), fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.2fx", float64(k)/g.RelativeTime(k)),
		})
	}
	return []*Table{t}, nil
}
