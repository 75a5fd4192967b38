// Package repro is a from-scratch Go reproduction of "High Throughput
// Data Center Topology Design" (Singla, Godfrey, Kolla — NSDI 2014).
//
// The library lives under internal/ (see ROADMAP.md for the system
// inventory), the figure regenerators under internal/experiments, the
// command-line tools under cmd/, and runnable examples under examples/.
// The benchmarks in bench_test.go regenerate every figure of the paper's
// evaluation in reduced "quick" mode and time the core algorithms; use
// cmd/topobench for full-fidelity runs. Every benchmark body that
// cmd/benchjson also runs lives once, in internal/benchsuite.
//
// # Scenario engine
//
// internal/scenario is the unified evaluation substrate: Topology,
// Traffic, and Evaluator interfaces with string-keyed registries wrapping
// the topo/rrg/hetero generators, the traffic patterns, and the
// throughput/bisection/packet/ASPL/cut metrics. A scenario is addressed
// by spec strings ("rrg:n=400,deg=10,sps=5" × "permutation" × "mcf"), swept
// declaratively (scenario.Grid, `topobench -scenario "topo=... sweep=
// deg:4..16"`), executed concurrently by internal/runner with the
// byte-identical serial/parallel guarantee, and memoized in a
// content-addressed solve cache keyed on (topology spec, traffic spec,
// evaluator spec, ε, seed, runs) — instances shared across figures,
// sweeps, and adaptive searches solve once per process. All 27 Fig*
// runners are thin declarative layers over this engine (their golden
// outputs are pinned byte-for-byte), and any registry combination the
// paper never evaluated — power-law RRGs under hotspot traffic, VL2
// bisection bandwidth — runs through the same machinery. See the
// internal/scenario package comment for the spec grammar, the cache key
// invariant, and how to register new kinds.
//
// # Persistent result store and evaluation service
//
// The solve cache's content addresses are stable across processes, so
// internal/store persists them: a disk-backed tier that replaces
// scenario.Cache's memory LRU, keyed on the hex SHA-256 of the point
// key, with a versioned checksummed binary codec, atomic
// temp-file-plus-rename publication, 256-way sharded directories, an
// open-time index, and LRU/byte-budget pruning (Prune). The durability clause of the
// cache-key invariant: a stored entry is exactly what a cold solve of
// its key computes, and anything that could violate that — truncation,
// bit rot, a foreign codec version (bump store.CodecVersion whenever
// result encoding changes) — decodes as a miss and is re-solved, never
// served. `topobench -cache-dir` puts the shared cache on a store for
// batch runs (printing cache + store statistics at exit); a restarted
// process then answers previously-solved grids ~2000× faster,
// byte-identically (StoreColdWarm in the bench snapshot, golden tests
// pinned with the store enabled).
//
// internal/service wraps the engine and tiered cache in an HTTP JSON
// API — `topobench serve`: POST /v1/eval evaluates a declarative grid
// line (identical concurrent requests deduplicated in flight, a bounded
// job queue answering 429 under overload), GET /v1/result/<key> returns
// one stored result by content address, /v1/scenarios lists the
// registries, and /healthz + /metrics expose liveness and
// cache/store/request counters. Responses are canonically marshaled: a
// warm replay — same process or a restart over the same cache dir — is
// byte-identical to the cold response, and `topobench -scenario -json`
// emits the same bytes from the command line. Long grids go through the
// async job API instead of holding a connection: POST /v1/jobs answers
// 202 with a poll URL, job records persist in the result store (TBRJ
// codec, same corruption-tolerance rule as results — a lost or corrupt
// record means "unknown job, resubmit", never a wedge), progress and
// the final canonical bytes, which a done job's record holds, are
// served from GET /v1/jobs/<id>[/result], and a restarted daemon
// re-dispatches unfinished jobs and answers finished ones from their
// records. `topobench submit` is the submit/poll/fetch client.
//
// # Fault-tolerant distributed evaluation
//
// Replicas form a fleet: `topobench serve -peer <url>` consults another
// replica's result pool over HTTP via internal/remotestore, a
// scenario.Backend that ships the store's own TBRS bytes on the wire
// (CRC re-verified on receipt), retries retryable failures with
// exponential backoff and full jitter under per-attempt deadlines, and
// trips a circuit breaker on consecutive failures so a dead peer costs
// one cheap rejection per call. store.Tiered layers disk before the peer
// with write-back promotion, and `-claim-lease` adds crash-safe
// cross-replica singleflight: cold solves race for an atomically linked
// claim file on the shared store directory, losers poll for the winner's
// entry, and expired leases are reclaimed — a crashed winner delays its
// point by one lease TTL, never wedges it. The governing rule is the
// cache-key invariant's degradation ladder: a local solve returns
// byte-identical values, so every failure at every layer — timeout, 5xx,
// corrupt payload, open breaker, lost claim — degrades to "miss, solve
// locally", never to an error and never to wrong data.
// internal/faultinject proves it: deterministic seeded fault-injecting
// RoundTripper/Backend wrappers (latency, timeouts, 5xx, resets,
// truncation, bit flips) drive the chaos suites in internal/remotestore,
// internal/store, and internal/service, and `-fault-inject` wires the
// same injector into a live replica for the CI chaos smoke — two
// replicas under 20% transport errors answering byte-identically to a
// clean run. The service itself recovers panics, bounds evaluations with
// `-request-timeout` (cancellation propagates through the engine into
// mcf.Solve phase boundaries; determinism is untouched because a solve
// either completes identically or returns nothing), reports degraded
// health on /healthz while remote errors are recent, and exposes
// retry/breaker/claim counters on /metrics.
//
// # Incremental evaluation
//
// Delta-shaped scenarios need not solve cold. A failure-ladder rung
// (failures:frac=f) and an expansion step (expand:steps=k) each have a
// natural parent — the same point at frac=0, the same topology at
// steps=k−1 — and scenario.ParentPoint derives it canonically, run
// controls inherited. With warm starts enabled (Engine.WarmStart,
// `topobench -scenario -warm-start`, `serve -warm-start`) the engine
// materializes the parent through the ordinary read ladder
// (memory, or disk store → peer replica — witnesses are ordinary
// content-addressed entries under scenario.WitnessKey, so a witness
// written by another process or another replica warm-starts this one
// bit-exactly), maps the parent's dual length witness onto the child's
// arcs (mcf.MapArcLens), and seeds the Garg–Könemann solve from it
// (mcf.Options.WarmLens). A warm-seeded solve stops at the full
// certification gap 3ε against its best dual bound — the exact class
// flowcheck certifies — instead of re-deriving the length function from
// scratch; on the benchmark ladder that is a 3–5× end-to-end speedup
// (SolverWarmStart/{ladder,expand} in the bench snapshot, the ladder's
// ≥3× floor enforced by cmd/benchjson on every run). The guarantee is
// not assumed but re-checked: EVERY warm-started result is re-certified
// by flowcheck before it is published, and a failed certification falls
// back to a cold solve (Engine.WarmStats counts attempts, certified
// starts, and fallbacks; /metrics exposes them as warm_*_total).
// Cold solves are untouched byte-for-byte — warm-starting is opt-in and
// can only move a value within the certified ε class. Store entries
// written for a warm-started child carry their parent's content address
// (TBRS codec v2 parent link, readable by any process). A child copies
// its parent's witnesses before its runs start, so nothing pins them: a
// witness evicted earlier by a store Prune only makes the child solve
// cold.
//
// # Performance architecture
//
// Every figure of the evaluation bottoms out in mcf.Solve, the
// Garg–Könemann concurrent-flow approximation standing in for the paper's
// CPLEX LP. Two layers keep regeneration fast:
//
// Solver layer. graph.Graph exposes its adjacency as a lazily built CSR
// (compressed sparse row) view, so the BFS/Dijkstra inner loops walk flat
// arrays instead of per-node slices. graph.DijkstraScratch makes repeated
// shortest-path trees allocation-free: dist/via validity is tracked with
// epoch stamps (no O(n) clearing), the heap keeps its backing array, and
// runs stop early once every requested target is settled. mcf.Solve
// builds on this with per-source trees that persist until a requested
// path's total length has grown by ≥ (1+ε) since the tree was built (the
// slack the Garg–Könemann analysis tolerates), an incrementally maintained
// termination potential, and a primal-dual certificate — the phase's tree
// distances yield a valid dual bound λ* ≤ Σ lens·caps / Σ demand·dist —
// that stops the solve as soon as the gap closes instead of waiting for
// the worst-case potential rule. maxflow.BisectionBandwidth refines cuts
// with incremental Kernighan–Lin swap gains (O(1) per candidate pair)
// rather than recomputing the full cut capacity per pair.
//
// Tree refresh and traversal. A solve runs on the calling goroutine and
// routes its sources in order. A tree is built when its source first
// routes, and refreshed only when a piece about to route on it finds its
// path stale (the (1+ε) test above), under the lengths that piece sees.
// Each rebuild picks its traversal adaptively: when the phase's length
// spread max/min is small — the early/mid-solve regime, where
// Garg–Könemann lengths are still near-uniform — a monotone bucket-queue
// Dijkstra (graph.DijkstraScratch.RunBucketed, bucket width from
// graph.LengthRange) replaces the heap's O(log n) sifts with O(1) bucket
// appends; when the spread is wide, or bucket runs keep paying
// window-overflow rebases (a deterministic kill switch mirroring the
// repair one), builds revert to the heap. The dual normalizer α is
// accumulated from the phase-end trees: each was built under lengths ≤
// the end-of-phase lengths, hence a valid dual bound, and they are the
// freshest trees the phase has, which keeps the primal-dual certificate
// tight.
//
// Dynamic tree repair. Stale shortest-path trees need not be rebuilt:
// because Garg–Könemann lengths only grow, graph.DijkstraScratch.Repair
// (increase-only Ramalingam–Reps) re-relaxes exactly the subtrees hanging
// below grown tree arcs, seeded from the unaffected boundary, and matches
// a from-scratch Dijkstra bit-for-bit when shortest paths are unique.
// Repair is valid only for complete trees (no early exit) and wins only
// when the stale region is a small fraction of the tree — growth scattered
// by other sources' routing ("cross-traffic") qualifies; growth along the
// tree's own root paths does not, since the stale subtree then hangs off
// the root. mcf.Solve therefore applies it adaptively: sources whose trees
// go stale more than once per phase get full repairable builds, repairs
// bail beyond a budget of N/2 affected nodes, and a kill switch reverts
// the solve to early-exit rebuilds when repairs keep losing. Repair and
// the bucket queue have no caller-facing switches; ROADMAP.md records the
// ablation that keeps each of them.
//
// Experiment layer. internal/runner's Map is what the scenario engine maps
// a grid onto: every (point, run) pair is one task of one flat Map, in
// point-major order, so the runs of all points share the workers, and
// bisection trials nest inside a run. A point's cache lookup runs once,
// when its first run starts, and its store write once, when its last run
// ends. Every task seeds its RNG deterministically from (Options.Seed,
// point index) and results are reduced in grid order, so parallel output
// is byte-identical to serial output. One process-wide weighted
// semaphore is the only concurrency bound: total in-flight work stays
// within runner.SetMaxInFlight (GOMAXPROCS by default) no matter how
// grids, runs, and trials nest, and topobench's -workers sets it
// (-workers 1 is serial everywhere). Each figure in internal/experiments is one engine call. A
// runner with a family of curves lays every (curve, x) point out flat,
// measures them all at once, and folds the stats back into series in
// curve order, an infeasible point dropping from its own curve only; one
// normalizer and one peak function then scale the curves. Two kinds of
// runner are the
// exception. The §7 sizing searches (Fig. 12a–c) run a binary search per
// point and share only the fold. The detailed sweeps (Fig. 9a–c, 10a–b,
// 11) call Engine.MeasureDetailed once per curve, because each Detail
// holds a run's graph and flow result: flattening full-mode Fig. 11 (18
// curves × 11 x × 20 runs) would hold 3,960 of them at once.
// cmd/benchjson runs the hot-path entries of
// internal/benchsuite — the same bodies, under the same names, as `go test
// -bench` — and snapshots them to BENCH_<date>.json so perf is tracked
// from change to change. In CI it compares them to the committed baseline,
// recorded at the same GOMAXPROCS, failing on hot-path regressions.
//
// # Verifying results
//
// The solver's output is not trusted, it is certified. internal/flowcheck
// replays every claim from first principles, sharing none of the solver's
// machinery: flow conservation at every node, per-arc capacity after
// congestion scaling, per-commodity demand proportionality, and the
// primal-dual ε-optimality gap against a dual bound recomputed with an
// independent Dijkstra from the exported length witness (mcf.Result.
// DualLens). Solve with mcf.Options.RecordPaths to export the path
// decomposition the structural checks need. A warm-start engine certifies
// every warm solve before it serves the answer, and re-runs cold any solve
// that fails. flowcheck.VerifyPacket certifies the packet simulator's
// measurement window from its event-level audit (packet.Audit): exact
// per-node packet conservation — injected + arrived = delivered + next-hop
// attempts, in integers — per-arc line-rate sanity, and goodput/delivered
// consistency; the scenario engine's packet evaluator runs it on every
// simulation. The property tests in internal/mcf (`go test -run
// TestFlowcheckCertifies ./internal/mcf`) certify cold solves of random
// RRG, fat-tree, all-to-all and heavy-demand instances on every run, and
// the golden tests in internal/experiments pin representative figure
// outputs byte-for-byte (regenerate intentional drift with `go test
// ./internal/experiments -run TestGolden -update` and review the diff).
package repro
