// Package rrg builds the random graphs at the core of the paper: uniform
// random regular graphs (RRGs), random graphs with arbitrary degree
// sequences, and the two-cluster constructions with a controlled
// cross-cluster connectivity budget used throughout §5 and §6.
//
// All constructions use the configuration (stub-pairing) model followed by
// a local swap repair that removes self-loops and duplicate links while
// preserving the degree sequence. Disconnected outcomes are re-sampled a
// bounded number of times.
package rrg

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ErrInfeasible indicates that no simple graph with the requested structure
// exists (or none was found within the retry budget).
var ErrInfeasible = errors.New("rrg: infeasible construction")

const (
	maxRestarts    = 60 // full re-shuffles before giving up on a matching
	maxResamples   = 40 // connectivity re-samples before giving up
	repairSweepCap = 80 // swap-repair sweeps per shuffle
)

// Regular samples a random r-regular graph on n nodes with unit-capacity
// links (the paper's RRG(N, k, r) switch-to-switch interconnect). The graph
// is guaranteed simple and connected. Fails with ErrInfeasible if n·r is
// odd, r ≥ n, or no connected simple graph was found within the retry
// budget (possible only for degenerate parameters such as r ≤ 2).
func Regular(rng *rand.Rand, n, r int) (*graph.Graph, error) {
	if n <= 0 || r < 0 || r >= n || (n*r)%2 != 0 {
		return nil, fmt.Errorf("%w: no simple %d-regular graph on %d nodes", ErrInfeasible, r, n)
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = r
	}
	return FromDegrees(rng, deg, 1.0)
}

// FromDegrees samples a simple connected random graph with the given degree
// sequence; every link gets capacity linkCap. Nodes with degree 0 are
// permitted only when n == 1.
func FromDegrees(rng *rand.Rand, degrees []int, linkCap float64) (*graph.Graph, error) {
	n := len(degrees)
	total := 0
	for i, d := range degrees {
		if d < 0 || d >= n && n > 1 {
			return nil, fmt.Errorf("%w: degree %d at node %d with n=%d", ErrInfeasible, d, i, n)
		}
		total += d
	}
	if total%2 != 0 {
		return nil, fmt.Errorf("%w: odd degree sum %d", ErrInfeasible, total)
	}
	for attempt := 0; attempt < maxResamples; attempt++ {
		pairs, err := matchWithin(rng, stubsOf(degrees), nil)
		if err != nil {
			return nil, err
		}
		g := graph.New(n)
		for _, p := range pairs {
			g.AddLink(int(p[0]), int(p[1]), linkCap)
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%w: could not obtain a connected graph", ErrInfeasible)
}

// TwoClusterSpec describes a two-cluster random construction: DegA and DegB
// give each node's switch-to-switch port budget within cluster A and B, and
// CrossLinks is the exact number of links that must cross between the
// clusters. Remaining ports pair up uniformly at random within each
// cluster. Nodes 0..len(DegA)-1 form cluster A; the rest form cluster B.
type TwoClusterSpec struct {
	DegA, DegB []int
	CrossLinks int
	LinkCap    float64
	// AllowParallel permits parallel (trunked) links when a cluster is so
	// dense that no simple graph realizes its within-cluster degrees —
	// e.g. 10 switches that each need 12 within-cluster links. Physical
	// deployments trunk multiple cables between the same switch pair in
	// this regime. Self-loops are never produced.
	AllowParallel bool
}

// TwoCluster builds the biased random interconnect of §5.1: an exact number
// of cross-cluster links, the remainder paired within clusters. Parity of
// the per-cluster leftovers must work out: sum(DegA)-CrossLinks and
// sum(DegB)-CrossLinks must both be even and non-negative. Use
// FeasibleCross to snap a desired cross-link count to a feasible one.
func TwoCluster(rng *rand.Rand, spec TwoClusterSpec) (*graph.Graph, error) {
	if spec.LinkCap <= 0 {
		spec.LinkCap = 1
	}
	na, nb := len(spec.DegA), len(spec.DegB)
	sa, sb := sum(spec.DegA), sum(spec.DegB)
	x := spec.CrossLinks
	if x < 0 || x > sa || x > sb || (sa-x)%2 != 0 || (sb-x)%2 != 0 {
		return nil, fmt.Errorf("%w: cross=%d with stub totals %d/%d", ErrInfeasible, x, sa, sb)
	}
	n := na + nb

	for attempt := 0; attempt < maxResamples; attempt++ {
		// Allocate each side's x cross stubs across its nodes roughly in
		// proportion to degree, then repair so no node's within-cluster
		// degree exceeds what a simple graph on its cluster can absorb.
		capA, capB := na, nb
		if spec.AllowParallel {
			capA, capB = 1<<30, 1<<30
		}
		crossA, err := allocateCross(rng, spec.DegA, x, capA)
		if err != nil {
			return nil, err
		}
		crossB, err := allocateCross(rng, spec.DegB, x, capB)
		if err != nil {
			return nil, err
		}
		var stubsA, stubsB, withinAStubs, withinBStubs []int32
		for i, c := range crossA {
			for j := 0; j < c; j++ {
				stubsA = append(stubsA, int32(i))
			}
			for j := 0; j < spec.DegA[i]-c; j++ {
				withinAStubs = append(withinAStubs, int32(i))
			}
		}
		for i, c := range crossB {
			for j := 0; j < c; j++ {
				stubsB = append(stubsB, int32(na+i))
			}
			for j := 0; j < spec.DegB[i]-c; j++ {
				withinBStubs = append(withinBStubs, int32(na+i))
			}
		}

		crossPairs, err := matchAcross(rng, stubsA, stubsB)
		if err != nil {
			continue
		}
		taken := linkSet{}
		for _, p := range crossPairs {
			taken.add(p[0], p[1])
		}
		withinA, err := matchWithin(rng, withinAStubs, taken)
		if err != nil && spec.AllowParallel {
			withinA, err = matchWithinParallel(rng, withinAStubs)
		}
		if err != nil {
			continue
		}
		for _, p := range withinA {
			taken.add(p[0], p[1])
		}
		withinB, err := matchWithin(rng, withinBStubs, taken)
		if err != nil && spec.AllowParallel {
			withinB, err = matchWithinParallel(rng, withinBStubs)
		}
		if err != nil {
			continue
		}

		g := graph.New(n)
		for _, p := range crossPairs {
			g.AddLink(int(p[0]), int(p[1]), spec.LinkCap)
		}
		for _, p := range withinA {
			g.AddLink(int(p[0]), int(p[1]), spec.LinkCap)
		}
		for _, p := range withinB {
			g.AddLink(int(p[0]), int(p[1]), spec.LinkCap)
		}
		if x == 0 {
			// With no cross links the graph cannot be connected (unless one
			// side is empty); accept the two-component result so callers can
			// still evaluate the degenerate leftmost sweep points.
			return g, nil
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%w: two-cluster construction failed", ErrInfeasible)
}

// FeasibleCross snaps want to the nearest feasible cross-link count for
// stub totals sa and sb: 0 ≤ x ≤ min(sa, sb), sa-x and sb-x both even.
// If sa and sb have different parities no x satisfies both exactly when
// their difference is odd — in that case FeasibleCross returns an error
// (the caller must adjust a degree by one, as the paper's generator does).
func FeasibleCross(want, sa, sb int) (int, error) {
	if (sa-sb)%2 != 0 {
		return 0, fmt.Errorf("%w: stub totals %d and %d have different parity", ErrInfeasible, sa, sb)
	}
	x := want
	if x < 0 {
		x = 0
	}
	if m := min(sa, sb); x > m {
		x = m
	}
	if (sa-x)%2 != 0 { // same adjustment fixes both sides (equal parity)
		if x > 0 {
			x--
		} else {
			x++
		}
	}
	if x < 0 || x > sa || x > sb {
		return 0, fmt.Errorf("%w: no feasible cross count near %d", ErrInfeasible, want)
	}
	return x, nil
}

// ExpectedCrossLinks returns the number of cross-cluster links a vanilla
// (unbiased) random pairing would produce in expectation: each of the
// sa stubs in A pairs with a B stub with probability sb/(sa+sb-1).
func ExpectedCrossLinks(sa, sb int) float64 {
	t := sa + sb
	if t < 2 {
		return 0
	}
	return float64(sa) * float64(sb) / float64(t-1)
}

// allocateCross splits x cross-cluster stubs across the nodes of one
// cluster roughly in proportion to their degrees, with three constraints:
// a node's cross count cannot exceed its degree; the leftover within-
// cluster degree deg_i - cross_i cannot exceed clusterSize-1 (a simple
// graph on the cluster cannot absorb more); and the total is exactly x.
// Remainders are assigned at random for an unbiased construction.
func allocateCross(rng *rand.Rand, deg []int, x, clusterSize int) ([]int, error) {
	n := len(deg)
	total := sum(deg)
	cross := make([]int, n)
	if total == 0 {
		if x != 0 {
			return nil, fmt.Errorf("%w: cross stubs on empty cluster", ErrInfeasible)
		}
		return cross, nil
	}
	assigned := 0
	order := rng.Perm(n)
	for _, i := range order {
		c := x * deg[i] / total
		if c > deg[i] {
			c = deg[i]
		}
		cross[i] = c
		assigned += c
	}
	// Distribute the remainder randomly among nodes with headroom.
	for guard := 0; assigned < x && guard < 64*n; guard++ {
		i := rng.Intn(n)
		if cross[i] < deg[i] {
			cross[i]++
			assigned++
		}
	}
	if assigned < x {
		// Deterministic fallback sweep.
		for i := 0; i < n && assigned < x; i++ {
			for cross[i] < deg[i] && assigned < x {
				cross[i]++
				assigned++
			}
		}
	}
	if assigned != x {
		return nil, fmt.Errorf("%w: cannot place %d cross stubs on cluster with %d total", ErrInfeasible, x, total)
	}
	// Repair within-degree overflow: nodes needing more within-cluster
	// links than the cluster has distinct partners take extra cross links
	// from nodes with slack.
	maxWithin := clusterSize - 1
	for i := 0; i < n; i++ {
		for deg[i]-cross[i] > maxWithin {
			if cross[i] >= deg[i] {
				break
			}
			// Move one cross stub from the node with the most within-slack.
			donor := -1
			for j := 0; j < n; j++ {
				if j == i || cross[j] == 0 {
					continue
				}
				if deg[j]-cross[j]+1 <= maxWithin && (donor < 0 || deg[j]-cross[j] < deg[donor]-cross[donor]) {
					donor = j
				}
			}
			if donor < 0 {
				return nil, fmt.Errorf("%w: within-cluster degree overflow unrepairable", ErrInfeasible)
			}
			cross[donor]--
			cross[i]++
		}
		if deg[i]-cross[i] > maxWithin {
			return nil, fmt.Errorf("%w: node degree %d exceeds cluster capacity", ErrInfeasible, deg[i])
		}
	}
	return cross, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func stubsOf(degrees []int) []int32 {
	var stubs []int32
	for i, d := range degrees {
		for j := 0; j < d; j++ {
			stubs = append(stubs, int32(i))
		}
	}
	return stubs
}

// linkSet tracks which node pairs already carry a link.
type linkSet map[uint64]bool

func key(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func (s linkSet) has(u, v int32) bool { return s != nil && s[key(u, v)] }
func (s linkSet) add(u, v int32)      { s[key(u, v)] = true }

// matchWithin pairs stubs among themselves into simple links, avoiding
// self-loops, duplicates among the new pairs, and any link in forbid.
func matchWithin(rng *rand.Rand, stubs []int32, forbid linkSet) ([][2]int32, error) {
	if len(stubs)%2 != 0 {
		return nil, fmt.Errorf("%w: odd stub count %d", ErrInfeasible, len(stubs))
	}
	if len(stubs) == 0 {
		return nil, nil
	}
	work := append([]int32(nil), stubs...)
	for restart := 0; restart < maxRestarts; restart++ {
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		pairs := make([][2]int32, len(work)/2)
		for i := range pairs {
			pairs[i] = [2]int32{work[2*i], work[2*i+1]}
		}
		if repairPairs(rng, pairs, forbid) {
			return pairs, nil
		}
	}
	return nil, fmt.Errorf("%w: stub matching failed", ErrInfeasible)
}

// matchWithinParallel pairs stubs allowing parallel links (multigraph);
// only self-loops are repaired away. Used as the dense-cluster fallback.
func matchWithinParallel(rng *rand.Rand, stubs []int32) ([][2]int32, error) {
	if len(stubs)%2 != 0 {
		return nil, fmt.Errorf("%w: odd stub count %d", ErrInfeasible, len(stubs))
	}
	if len(stubs) == 0 {
		return nil, nil
	}
	work := append([]int32(nil), stubs...)
	for restart := 0; restart < maxRestarts; restart++ {
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		pairs := make([][2]int32, len(work)/2)
		ok := true
		for i := range pairs {
			pairs[i] = [2]int32{work[2*i], work[2*i+1]}
		}
		// Repair self-loops by partner swaps.
		for sweep := 0; sweep < repairSweepCap; sweep++ {
			fixed := true
			for i := range pairs {
				if pairs[i][0] != pairs[i][1] {
					continue
				}
				fixed = false
				done := false
				for t := 0; t < 4*len(pairs); t++ {
					j := rng.Intn(len(pairs))
					if j == i {
						continue
					}
					if pairs[j][1] != pairs[i][0] && pairs[j][0] != pairs[i][1] {
						pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
						done = true
						break
					}
				}
				if !done {
					break
				}
			}
			if fixed {
				return pairs, nil
			}
		}
		ok = true
		for i := range pairs {
			if pairs[i][0] == pairs[i][1] {
				ok = false
				break
			}
		}
		if ok {
			return pairs, nil
		}
	}
	return nil, fmt.Errorf("%w: parallel matching failed (all stubs on one node?)", ErrInfeasible)
}

// matchAcross pairs stubsA[i] with a shuffled stubsB into simple bipartite
// links (self-loops impossible; duplicates repaired by swaps).
func matchAcross(rng *rand.Rand, stubsA, stubsB []int32) ([][2]int32, error) {
	if len(stubsA) != len(stubsB) {
		return nil, fmt.Errorf("%w: unbalanced cross stubs %d/%d", ErrInfeasible, len(stubsA), len(stubsB))
	}
	if len(stubsA) == 0 {
		return nil, nil
	}
	b := append([]int32(nil), stubsB...)
	for restart := 0; restart < maxRestarts; restart++ {
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		pairs := make([][2]int32, len(stubsA))
		for i := range pairs {
			pairs[i] = [2]int32{stubsA[i], b[i]}
		}
		if repairPairs(rng, pairs, nil) {
			return pairs, nil
		}
	}
	return nil, fmt.Errorf("%w: cross matching failed", ErrInfeasible)
}

// repairPairs removes self-loops and duplicate links from pairs by random
// partner swaps, preserving which stub belongs to which node. Swapping the
// second elements of two pairs keeps bipartite matchings bipartite.
// Returns false if a conflict-free configuration was not reached.
func repairPairs(rng *rand.Rand, pairs [][2]int32, forbid linkSet) bool {
	seen := make(map[uint64]int, len(pairs)) // link key -> count among pairs
	bad := func(p [2]int32) bool {
		return p[0] == p[1] || forbid.has(p[0], p[1])
	}
	for _, p := range pairs {
		seen[key(p[0], p[1])]++
	}
	conflicted := func(i int) bool {
		p := pairs[i]
		return bad(p) || seen[key(p[0], p[1])] > 1
	}
	for sweep := 0; sweep < repairSweepCap; sweep++ {
		fixedAll := true
		for i := range pairs {
			if !conflicted(i) {
				continue
			}
			fixedAll = false
			// Try a bounded number of random swap partners.
			ok := false
			for t := 0; t < 4*len(pairs); t++ {
				j := rng.Intn(len(pairs))
				if j == i {
					continue
				}
				pi, pj := pairs[i], pairs[j]
				ni := [2]int32{pi[0], pj[1]}
				nj := [2]int32{pj[0], pi[1]}
				if bad(ni) || bad(nj) {
					continue
				}
				ki, kj := key(pi[0], pi[1]), key(pj[0], pj[1])
				nki, nkj := key(ni[0], ni[1]), key(nj[0], nj[1])
				// Count occupancy after removing the two old links; reject if
				// either new link already exists or the two new pairs would
				// form the same link (a duplicate between themselves).
				seen[ki]--
				seen[kj]--
				if seen[nki] > 0 || seen[nkj] > 0 || nki == nkj {
					seen[ki]++
					seen[kj]++
					continue
				}
				seen[nki]++
				seen[nkj]++
				pairs[i], pairs[j] = ni, nj
				ok = true
				break
			}
			if !ok {
				return false
			}
		}
		if fixedAll {
			return true
		}
	}
	// Final verification sweep.
	for i := range pairs {
		if conflicted(i) {
			return false
		}
	}
	return true
}
