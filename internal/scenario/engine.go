package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/hetero"
	"repro/internal/rrg"
	"repro/internal/runner"
	"repro/internal/trace"
)

// DefaultSeedFactor is the per-run seed derivation of a point that sets
// no SeedFactor: run i draws from Seed·1,000,003 + i.
const DefaultSeedFactor = 1_000_003

// Point is one fully-specified scenario evaluation: a topology × traffic ×
// evaluator triple plus run controls. Run i draws its RNG from
// Seed*SeedFactor + i, builds the topology, generates the traffic, and
// evaluates — all on that one stream, so a point's results depend only on
// its specs and seeds, never on scheduling.
type Point struct {
	Topo    Topology
	Traffic Traffic
	Eval    Evaluator
	// Seed is the point's base RNG seed.
	Seed int64
	// SeedFactor scales Seed in the per-run derivation
	// rng(i) = NewSource(Seed*SeedFactor + i). 0 means DefaultSeedFactor;
	// figure runners that historically seeded runs as base+run use 1.
	SeedFactor int64
	// Runs is the number of independent runs (0 means 3).
	Runs int
	// Epsilon is the flow-solver approximation parameter (0 = solver default).
	Epsilon float64
}

func (p Point) runs() int {
	if p.Runs <= 0 {
		return 3
	}
	return p.Runs
}

func (p Point) seedFactor() int64 {
	if p.SeedFactor == 0 {
		return DefaultSeedFactor
	}
	return p.SeedFactor
}

// Key is the point's content address: every input that determines its
// result, in a fixed order. Points whose topology has an empty spec are
// not addressable (ad-hoc closures) and bypass the cache.
func (p Point) Key() string {
	var b strings.Builder
	b.WriteString(p.Topo.Spec())
	b.WriteByte('|')
	if p.Traffic != nil {
		b.WriteString(p.Traffic.Spec())
	}
	b.WriteByte('|')
	b.WriteString(p.Eval.Spec())
	fmt.Fprintf(&b, "|eps=%g|seed=%d|factor=%d|runs=%d", p.Epsilon, p.Seed, p.seedFactor(), p.runs())
	return b.String()
}

// Stat summarizes one point's runs. OK is false when the point was
// physically infeasible (skipped by a sweep).
type Stat struct {
	Mean, Std, Min, Max float64
	Runs                int
	OK                  bool
}

// Engine executes scenario points on the shared runner substrate: a
// grid's (point, run) pairs map concurrently as one flat schedule, bounded
// in total by the process-wide runner.SetMaxInFlight (1 runs everything
// serially). Output is byte-identical at every bound — every run's RNG
// derives from (Seed, SeedFactor, run index) and reductions are serial in
// index order. The zero value runs without a cache.
type Engine struct {
	// Cache, when non-nil, memoizes per-point run values by content
	// address, so sweeps and figures sharing instances never re-solve.
	Cache *Cache
	// SkipInfeasible treats physically-unrealizable sweep points
	// (hetero.ErrInfeasiblePoint, rrg.ErrInfeasible) as skipped (nil runs,
	// Stat.OK=false) instead of failing the whole grid.
	SkipInfeasible bool
	// WarmStart enables incremental (delta) evaluation: points with a
	// derivable parent (see ParentPoint) seed their flow solves from the
	// parent's stored dual witness instead of solving from scratch. Every
	// warm-started solve is re-certified by flowcheck and falls back to a
	// cold solve on failure, so enabling this may change a point's value
	// only within the certified (1+ε) class — never outside it. Requires a
	// Cache; off by default, preserving byte-exact legacy output.
	WarmStart bool

	warmAttempts  atomic.Int64
	warmStarts    atomic.Int64
	warmFallbacks atomic.Int64
	parentHits    atomic.Int64
	parentMisses  atomic.Int64

	warmMu       sync.Mutex
	warmInflight map[string]*sync.WaitGroup
}

// WarmStats snapshots the engine's incremental-evaluation counters:
// Attempts counts runs that entered the solver warm-seeded, Starts the
// subset that passed flowcheck certification, Fallbacks the subset
// re-solved cold after a failed certification (Attempts − Starts −
// Fallbacks were rejected by the solver itself, e.g. unusable seeds).
// ParentHits counts points whose full parent witness set was already in
// the cache tiers; ParentMisses points that had to materialize (or do
// without) their parent.
type WarmStats struct {
	Attempts, Starts, Fallbacks int64
	ParentHits, ParentMisses    int64
}

// Metrics emits the warm-start /metrics families in scrape order, each
// with its help text.
func (s WarmStats) Metrics(emit func(name, help string, v int64)) {
	emit("warm_attempts_total", "Delta solves attempted with a parent witness.", s.Attempts)
	emit("warm_starts_total", "Delta solves that ran warm-started and certified.", s.Starts)
	emit("warm_cert_fallbacks_total", "Warm-started solves that failed certification and re-ran cold.", s.Fallbacks)
	emit("warm_parent_hits_total", "Parent witness lookups that found a usable witness.", s.ParentHits)
	emit("warm_parent_misses_total", "Parent witness lookups that found none.", s.ParentMisses)
}

// WarmStats reports the engine's warm-start counters.
func (e *Engine) WarmStats() WarmStats {
	return WarmStats{
		Attempts:     e.warmAttempts.Load(),
		Starts:       e.warmStarts.Load(),
		Fallbacks:    e.warmFallbacks.Load(),
		ParentHits:   e.parentHits.Load(),
		ParentMisses: e.parentMisses.Load(),
	}
}

// errNotFinite fails a run whose value is not a finite number. λ of a
// traffic matrix with no flows is +Inf (a topology with no servers, such
// as rrg without sps=), and a cut with an empty side divides by zero:
// such a point has nothing to measure. It counts as infeasible, so no
// non-finite value reaches a cache, a store entry or a response.
var errNotFinite = errors.New("run value is not finite: nothing to measure")

// infeasible classifies errors that mark a sweep point as unrealizable
// rather than broken: a build that cannot be wired, or a run with nothing
// to measure.
func infeasible(err error) bool {
	return errors.Is(err, hetero.ErrInfeasiblePoint) || errors.Is(err, rrg.ErrInfeasible) ||
		errors.Is(err, errNotFinite)
}

// Measure evaluates every point and summarizes its runs. Every (point,
// run) pair is one task on the flat schedule (see MeasureRunsProgress),
// bounded by the process-wide runner semaphore.
func (e *Engine) Measure(pts []Point) ([]Stat, error) {
	vals, err := e.MeasureRuns(pts)
	if err != nil {
		return nil, err
	}
	stats := make([]Stat, len(vals))
	for i, v := range vals {
		stats[i] = summarize(v)
	}
	return stats, nil
}

// MeasureRuns evaluates every point and returns the raw per-run values in
// run order. A nil slice marks a point skipped as infeasible. The returned
// slices may be served from the cache and must be treated as read-only.
func (e *Engine) MeasureRuns(pts []Point) ([][]float64, error) {
	return e.MeasureRunsProgress(context.Background(), pts, nil)
}

// ProgressFunc observes grid progress: done points completed out of total.
// Calls come from worker goroutines and may overlap, so done values can
// arrive out of order; each arrives at most once, and all of 1..total do
// when every point completes. The callback must be safe for concurrent
// use and cheap — a slow callback stalls the worker that calls it.
type ProgressFunc func(done, total int)

// MeasureRunsProgress is MeasureRuns under a context, with an optional
// per-point progress callback.
//
// The grid's (point, run) pairs are one runner.Map in point-major order,
// so the runs of every point share the workers. A point's begin step
// (its cache lookup, which may take a claim lease, then prepareWarm) runs
// once, when its first run starts; its other runs wait for it. Its finish
// step (Cache.Put or Abandon, the end of its trace span, the progress
// tick) runs once, by the last of its runs to end.
//
// Once ctx is done, no new point or run starts, in-flight flow solves
// abort at their next phase boundary (mcf.Options.Cancel), and the
// context's error is returned. Cancellation never reaches the cache — an
// aborted run stores nothing — so a canceled grid re-evaluates cleanly.
// The evaluation service threads each request's context here so a
// dropped client stops burning solver time instead of holding a queue
// slot to completion.
//
// A non-nil progress fires progress(0, n) before evaluation starts, then
// progress(k, n) after each point completes (cache hits and infeasible
// skips count — every point resolves exactly once). The async job API
// threads its progress persistence through here.
func (e *Engine) MeasureRunsProgress(ctx context.Context, pts []Point, progress ProgressFunc) ([][]float64, error) {
	if progress != nil {
		progress(0, len(pts))
	}
	ev := make([]pointEval, len(pts))
	var completed atomic.Int64
	return flatRuns(pts, pointSteps[float64]{
		begin: func(i int) ([]float64, bool, error) {
			return e.beginPoint(ctx, pts[i], &ev[i])
		},
		run: func(i, r int) (float64, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			v, _, err := e.oneRun(ev[i].ctx, pts[i], r, false, ev[i].pw)
			return v, err
		},
		finish: func(i int, vals []float64, err error) ([]float64, error) {
			vals, err = e.finishPoint(&ev[i], vals, err)
			if err != nil {
				// Report the cancellation itself, not the per-point error it
				// surfaced as, so callers can errors.Is it.
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				return nil, fmt.Errorf("scenario: point %d (%s): %w", i, pts[i].Key(), err)
			}
			if progress != nil {
				progress(int(completed.Add(1)), len(pts))
			}
			return vals, nil
		},
	})
}

// MeasureOne evaluates a single point (the adaptive-search building block;
// with a cache attached, repeated probes of the same point are free).
func (e *Engine) MeasureOne(p Point) (Stat, error) {
	stats, err := e.Measure([]Point{p})
	if err != nil {
		return Stat{}, err
	}
	return stats[0], nil
}

// pointEval is what a point's begin step leaves for its runs and its
// finish step.
type pointEval struct {
	key string
	// ctx carries the point's trace span, the parent of its runs' spans.
	ctx  context.Context
	span trace.Span
	// missed is set when the cache lookup missed: exactly one Put or
	// Abandon follows.
	missed bool
	pw     *pointWarm
}

// beginPoint is a point's begin step: it opens the point's span, looks
// the point up in the cache and, on a miss, prepares its warm start. done
// means the lookup hit: vals are the point's values and no run solves.
func (e *Engine) beginPoint(ctx context.Context, p Point, pe *pointEval) (vals []float64, done bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if p.Topo.Spec() != "" {
		pe.key = p.Key()
	}
	pe.ctx = ctx
	if sp := trace.StartSpan(ctx, "point"); sp.OK() {
		sp.Attr("key", pe.key)
		pe.span, pe.ctx = sp, trace.ContextWithSpan(ctx, sp)
	}
	if e.Cache != nil && pe.key != "" {
		if vals, ok := e.Cache.Get(pe.ctx, pe.key); ok {
			return vals, true, nil
		}
		pe.missed = true
	}
	pe.pw = e.prepareWarm(pe.ctx, p, pe.key)
	return nil, false, nil
}

// finishPoint is a point's finish step: it stores the point's values, or
// abandons its key when err (its lowest failing run's error) means there
// is nothing to store, and ends the point's span. An infeasible point
// under SkipInfeasible reports nil values and no error.
func (e *Engine) finishPoint(pe *pointEval, vals []float64, err error) ([]float64, error) {
	defer pe.span.End()
	if pe.missed {
		if err != nil {
			// No Put will follow, so release any claim lease Get acquired
			// for this key — a failed, canceled, infeasible or cut-short
			// solve must not park fleet peers until the lease expires.
			e.Cache.Abandon(pe.key)
		} else {
			parentKey := ""
			if pe.pw != nil {
				parentKey = pe.pw.parentKey
			}
			e.Cache.Put(pe.key, vals, parentKey)
		}
	}
	if err != nil {
		if e.SkipInfeasible && infeasible(err) {
			return nil, nil
		}
		return nil, err
	}
	return vals, nil
}

// pointSteps are the steps a flat schedule takes for each point. begin
// runs once per point, by the first of its runs to start, while the
// point's other runs wait; it may settle the point before any run solves,
// with done (vals are the point's values) or an error (the point fails).
// run evaluates run r of point i. finish runs exactly once for every point
// whose begin started, with the point's values or the error of its lowest
// failing run (the values are then incomplete), and returns what the point
// reports.
type pointSteps[T any] struct {
	begin  func(i int) (vals []T, done bool, err error)
	run    func(i, r int) (T, error)
	finish func(i int, vals []T, err error) ([]T, error)
}

// errCutShort is the error a point's finish step gets when not all of
// its runs ended: its begin step panicked, or runner.Map skipped some of
// its runs after a lower point failed.
var errCutShort = errors.New("scenario: point cut short")

// pointRuns is one point's share of a flat schedule.
type pointRuns[T any] struct {
	once  sync.Once
	begun bool // set as the begin step starts

	mu sync.Mutex
	// Runs below stop solve. It is -1 until the begin step returns without
	// settling the point, then the run count, and a failing run lowers it
	// to its own index; err is the lowest failing run's error.
	stop int
	err  error
	vals []T
	// left counts the runs that have not ended.
	left int
	// over is set as the finish step starts.
	over bool
}

// flatRuns evaluates every (point, run) pair of pts as one runner.Map in
// point-major order, so a grid's runs fill every worker: the last point's
// runs do not go serial on one worker while the others idle. Under
// runner.SetMaxInFlight(1) the tasks run inline in index order — each
// point's begin, its runs in order, its finish — the order of a serial
// loop over points and runs.
//
// Errors resolve as in that loop. A run's panic is its failure, a
// *runner.Panic. Within a point the lowest failing run decides, and runs
// above a known failure are skipped. The finish step runs on every
// failure, and a deciding panic is re-raised after it, so it still
// reaches the caller as a *runner.Panic. Across points the lowest failing
// point decides: a point's failure is reported by its finishing run, at
// an index inside the point's own range. Every point whose begin started
// gets exactly one finish. A point cut short, by a panic in its begin step
// or by runner.Map skipping its runs after a lower point failed, finishes
// with errCutShort once the Map has returned.
func flatRuns[T any](pts []Point, s pointSteps[T]) ([][]T, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	// start[i] is the flat index of point i's run 0.
	start := make([]int, len(pts)+1)
	st := make([]pointRuns[T], len(pts))
	for i, p := range pts {
		n := p.runs()
		start[i+1] = start[i] + n
		st[i].stop, st[i].vals, st[i].left = -1, make([]T, n), n
	}
	defer func() {
		for i := range st {
			if st[i].begun && !st[i].over {
				s.finish(i, nil, errCutShort)
			}
		}
	}()
	out := make([][]T, len(pts))
	_, err := runner.Map(start[len(pts)], func(k int) (struct{}, error) {
		i := sort.SearchInts(start, k+1) - 1
		r := k - start[i]
		ps := &st[i]
		// Once orders the begin step before every run of the point, so its
		// writes need no lock.
		ps.once.Do(func() {
			ps.begun = true
			vals, done, err := s.begin(i)
			switch {
			case err != nil:
				ps.err = err
			case done:
				ps.vals = vals
			default:
				ps.stop = len(ps.vals)
			}
		})
		ps.mu.Lock()
		solve := r < ps.stop
		ps.mu.Unlock()
		var (
			v    T
			rerr error
		)
		if solve {
			v, rerr = runGuarded(s.run, i, r)
		}
		ps.mu.Lock()
		switch {
		case rerr != nil && r < ps.stop:
			ps.stop, ps.err = r, rerr
		case solve && rerr == nil:
			ps.vals[r] = v
		}
		ps.left--
		last := ps.left == 0
		ps.mu.Unlock()
		if !last {
			return struct{}{}, nil
		}
		ps.over = true
		vals, err := s.finish(i, ps.vals, ps.err)
		if p, ok := ps.err.(*runner.Panic); ok {
			panic(p)
		}
		out[i] = vals
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runGuarded runs run r of point i and returns its panic, if any, as the
// run's failure: a *runner.Panic with the value and the stack, as
// runner.Map would re-raise it. A *runner.Panic from a nested Map passes
// through as it is.
func runGuarded[T any](run func(i, r int) (T, error), i, r int) (v T, err error) {
	defer func() {
		if x := recover(); x != nil {
			p, ok := x.(*runner.Panic)
			if !ok {
				p = &runner.Panic{Value: x, Stack: debug.Stack()}
			}
			err = p
		}
	}()
	return run(i, r)
}

// pointWarm is the per-point warm-start plan prepareWarm assembles in a
// point's begin step: the parent's identity and per-run witnesses. The
// witnesses are the caller's own copies (Cache.Get returns slices the
// caller owns), so an eviction after prepareWarm cannot touch them.
type pointWarm struct {
	parentKey  string
	kind       parentKind
	parentTopo Topology
	// lens[i] is run i's parent witness (nil: that run solves cold).
	lens [][]float64
}

// prepareWarm derives the point's parent and gathers its per-run
// witnesses from the cache's tier (memory, or a backend's disk → remote
// ladder), materializing the parent point on a miss. Returns nil when the
// point has no derivable parent or no witness could be obtained — the
// point then runs exactly as with WarmStart off. Never returns an error:
// warm starts are an optimization, and any failure here degrades to a
// cold solve.
func (e *Engine) prepareWarm(ctx context.Context, p Point, key string) *pointWarm {
	if !e.WarmStart || e.Cache == nil || key == "" {
		return nil
	}
	pp, kind, ok := parentPoint(p)
	if !ok || pp.Topo.Spec() == "" {
		return nil
	}
	parentKey := pp.Key()
	sp := trace.StartSpan(ctx, "warm.prepare")
	sp.Attr("parent", parentKey)
	defer sp.End()
	load := func() ([][]float64, bool) {
		lens := make([][]float64, p.runs())
		all := true
		for i := range lens {
			if w, ok := e.Cache.Get(ctx, WitnessKey(parentKey, i)); ok {
				lens[i] = w
			} else {
				all = false
			}
		}
		return lens, all
	}
	lens, all := load()
	if all {
		sp.Attr("witnesses", "hit")
		e.parentHits.Add(1)
	} else {
		// Some or all witnesses are missing in every tier: solve the parent
		// point now (deduplicated per parent key, so concurrent siblings of
		// a ladder share one materialization). Parents are themselves
		// delta-shaped points, so this recursion walks expansion ladders
		// down to their base. A parent that was cached as a result by a
		// non-warm process has no witnesses to offer; its children solve
		// cold — a documented degradation, never an error.
		sp.Attr("witnesses", "miss")
		e.parentMisses.Add(1)
		e.materializeParent(ctx, pp, parentKey)
		lens, _ = load()
	}
	for _, w := range lens {
		if w != nil {
			return &pointWarm{parentKey: parentKey, kind: kind, parentTopo: pp.Topo, lens: lens}
		}
	}
	return nil
}

// materializeParent solves the parent point, as a one-point grid on the
// same flat schedule, so its witnesses land in the cache, deduplicating
// concurrent requests per parent key. The solve's error (if any) is
// deliberately dropped: the children fall back to cold solves and the
// error resurfaces if the parent point is ever evaluated in its own
// right.
func (e *Engine) materializeParent(ctx context.Context, pp Point, parentKey string) {
	msp := trace.StartSpan(ctx, "warm.materialize")
	defer msp.End()
	e.warmMu.Lock()
	if wg, ok := e.warmInflight[parentKey]; ok {
		e.warmMu.Unlock()
		msp.Attr("outcome", "joined")
		wg.Wait()
		return
	}
	if e.warmInflight == nil {
		e.warmInflight = map[string]*sync.WaitGroup{}
	}
	wg := &sync.WaitGroup{}
	wg.Add(1)
	e.warmInflight[parentKey] = wg
	e.warmMu.Unlock()
	msp.Attr("outcome", "solved")
	defer func() {
		e.warmMu.Lock()
		delete(e.warmInflight, parentKey)
		e.warmMu.Unlock()
		wg.Done()
	}()
	_, _ = e.MeasureRunsProgress(ctx, []Point{pp}, nil)
}

// MeasureDetailed evaluates every point keeping each run's full result
// (requires the evaluator to implement DetailedEvaluator), on the same
// flat schedule as MeasureRunsProgress. Details hold graphs and flow
// results, so they are never cached.
func (e *Engine) MeasureDetailed(pts []Point) ([][]Detail, error) {
	return flatRuns(pts, pointSteps[Detail]{
		begin: func(i int) ([]Detail, bool, error) {
			if _, ok := pts[i].Eval.(DetailedEvaluator); !ok {
				return nil, false, fmt.Errorf("evaluator %s has no detailed mode", pts[i].Eval.Spec())
			}
			return nil, false, nil
		},
		run: func(i, r int) (Detail, error) {
			_, d, err := e.oneRun(context.Background(), pts[i], r, true, nil)
			return d, err
		},
		finish: func(i int, dets []Detail, err error) ([]Detail, error) {
			if err == nil {
				return dets, nil
			}
			if e.SkipInfeasible && infeasible(err) {
				return nil, nil
			}
			return nil, fmt.Errorf("scenario: point %d (%s): %w", i, pts[i].Key(), err)
		},
	})
}

// oneRun executes run i of a point: one RNG stream through build, traffic,
// and evaluation. cctx's cancellation is handed to the evaluator; it never
// influences a completed run's value. pw, when non-nil, carries the
// point's warm-start plan: run i is seeded from pw.lens[i] and the run's
// own witness is stored for the point's future children.
func (e *Engine) oneRun(cctx context.Context, p Point, i int, keep bool, pw *pointWarm) (float64, Detail, error) {
	if sp := trace.StartSpan(cctx, "run"); sp.OK() {
		sp.AttrInt("idx", int64(i))
		cctx = trace.ContextWithSpan(cctx, sp)
		defer sp.End()
	}
	rng := rand.New(rand.NewSource(p.Seed*p.seedFactor() + int64(i)))
	g, err := p.Topo.Build(rng)
	if err != nil {
		return 0, Detail{}, fmt.Errorf("build run %d: %w", i, err)
	}
	ctx := &EvalContext{G: g, Rng: rng, Epsilon: p.Epsilon, Cancel: cctx.Done(), Ctx: cctx}
	var w *WarmExchange
	if e.WarmStart {
		w = &WarmExchange{}
		ctx.Warm = w
		if pw != nil && i < len(pw.lens) && pw.lens[i] != nil {
			switch pw.kind {
			case deltaEval:
				// An evaluator delta's parent solved (a clone of) this very
				// graph: same stream prefix, degradation not yet applied.
				w.ParentG, w.ParentLens = g, pw.lens[i]
				e.warmAttempts.Add(1)
			case deltaTopo:
				// A topology delta's parent graph is rebuilt on a fresh copy
				// of the run's stream — identical prefix, one step shorter.
				prng := rand.New(rand.NewSource(p.Seed*p.seedFactor() + int64(i)))
				if pg, perr := pw.parentTopo.Build(prng); perr == nil {
					w.ParentG, w.ParentLens = pg, pw.lens[i]
					e.warmAttempts.Add(1)
				}
			}
		}
	}
	if p.Traffic != nil {
		ctx.TM, err = p.Traffic.Matrix(rng, g)
		if err != nil {
			return 0, Detail{}, err
		}
	}
	var v float64
	var d Detail
	if keep {
		d, err = p.Eval.(DetailedEvaluator).EvaluateDetailed(ctx)
		v = d.Value
	} else {
		v, err = p.Eval.Evaluate(ctx)
	}
	if err == nil && (math.IsInf(v, 0) || math.IsNaN(v)) {
		return 0, Detail{}, fmt.Errorf("run %d: %w: %v", i, errNotFinite, v)
	}
	if w != nil && err == nil {
		if w.WarmStarted {
			e.warmStarts.Add(1)
		}
		if w.CertFallback {
			e.warmFallbacks.Add(1)
		}
		if e.Cache != nil && w.Witness != nil && p.Topo.Spec() != "" && canParent(p) {
			// Publish the run's witness as an ordinary cache entry so this
			// point's future children (in this process or any replica) can
			// warm-start from it. A point that is nobody's parent publishes
			// nothing: no child would ever load the entry.
			e.Cache.Put(WitnessKey(p.Key(), i), w.Witness, "")
		}
	}
	return v, d, err
}

// MaxAtFull binary-searches the largest size in [lo, hi] whose point still
// achieves Min ≥ threshold(size) across all runs — the §7 "supported at
// full throughput" search, generalized to any point family. With a cache
// attached, re-probing a size (e.g. across workload variants sharing a
// sizing search) costs nothing.
func (e *Engine) MaxAtFull(lo, hi int, threshold func(size int) float64, point func(size int) Point) (int, error) {
	ok := func(size int) (bool, error) {
		st, err := e.MeasureOne(point(size))
		if err != nil {
			return false, err
		}
		return st.OK && st.Min >= threshold(size), nil
	}
	okLo, err := ok(lo)
	if err != nil {
		return 0, err
	}
	if !okLo {
		return lo - 1, nil
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// Summarize folds raw run values (as returned by MeasureRuns) into a
// Stat — the hook for layers that need both the values and the summary,
// like the evaluation service.
func Summarize(vals []float64) Stat { return summarize(vals) }

// summarize folds run values into a Stat, reducing in run order, so equal
// run values always summarize to identical bytes.
func summarize(vals []float64) Stat {
	if vals == nil {
		return Stat{}
	}
	st := Stat{Runs: len(vals), Min: math.Inf(1), Max: math.Inf(-1), OK: true}
	if len(vals) == 0 {
		return st
	}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		// The conversion rounds the square, so no CPU fuses it into a
		// multiply-add: Std has the same bits on every architecture.
		ss += float64((v - st.Mean) * (v - st.Mean))
	}
	st.Std = math.Sqrt(ss / float64(len(vals)))
	return st
}
