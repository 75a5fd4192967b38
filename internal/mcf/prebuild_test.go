package mcf

import "testing"

// stalePass returns a solve after one phase, with every source's tree
// rebuilt full (repairable) and then made stale for the next phase's
// prebuild: every length doubled and every arc marked grown since the
// trees were built. The phase's traversal choice is made, as runPhase
// makes it before the pass.
func stalePass(t *testing.T) *state {
	t.Helper()
	g, flows := cancelInstance(t)
	s := newState(g, flows, 0.1, Options{})
	if err := s.checkReachability(); err != nil {
		t.Fatal(err)
	}
	s.runPhase()
	if s.shared != nil || s.noRepair || s.noBucket {
		t.Fatal("setup: the solve must keep persistent trees with both switches on")
	}
	for i := range s.srcs {
		tr := s.treeFor(i)
		tr.hot = true
		s.buildTree(tr, &s.srcs[i])
	}
	s.growSeq++
	for a := range s.lens {
		s.lens[a] *= 2
		s.grownAt[a] = s.growSeq
	}
	s.choosePhaseTraversal()
	if len(s.srcs) < 3 || !s.useBucket {
		t.Fatalf("setup: %d sources, bucket queue %v; want at least 3 and the bucket queue", len(s.srcs), s.useBucket)
	}
	for i := range s.srcs {
		if !s.phaseStale(s.srcs[i].tree, &s.srcs[i]) {
			t.Fatalf("setup: source %d's tree is not stale", i)
		}
	}
	return s
}

// TestPrebuildHoldsKillSwitches pins the phase-start pass's one rule:
// every refresh in it sees the phase-start kill switches. Its counters
// accumulate refresh by refresh, and the switches trip when the pass
// ends: the bucket switch if any refresh of the pass crossed its limit,
// the repair switch if the pass's totals are past its limit.
func TestPrebuildHoldsKillSwitches(t *testing.T) {
	t.Run("bucket", func(t *testing.T) {
		s := stalePass(t)
		s.noRepair = true // every stale tree rebuilds
		// One build short of the rebase trip: the pass's first bucketed
		// build crosses the limit.
		s.bucketBuilds = bucketMinRuns - 1
		s.bucketRebases = bucketRebaseBudget*bucketMinRuns + 1
		builds, buckets := s.builds, s.bucketBuilds
		s.prebuildTrees()
		rebuilt := s.builds - builds
		if rebuilt != len(s.srcs) {
			t.Fatalf("the pass rebuilt %d trees, want all %d", rebuilt, len(s.srcs))
		}
		if got := s.bucketBuilds - buckets; got != rebuilt {
			t.Fatalf("%d of the pass's %d rebuilds used the bucket queue, want all: a refresh saw a mid-pass trip", got, rebuilt)
		}
		if s.bucketRebases > bucketRebaseBudget*s.bucketBuilds {
			t.Fatalf("setup: %d rebases over %d builds; the ratio must fall back under its limit by the pass end",
				s.bucketRebases, s.bucketBuilds)
		}
		if !s.noBucket || s.useBucket {
			t.Fatalf("after the pass: noBucket %v, useBucket %v; the first crossing must trip the switch when the pass ends",
				s.noBucket, s.useBucket)
		}
	})

	t.Run("repair", func(t *testing.T) {
		s := stalePass(t)
		// One try short of the switch, no successes: every repair of the
		// pass fails (the whole tree is stale, over the repair budget).
		s.repairTries, s.repairs = repairMinTries-1, 0
		tries := s.repairTries
		s.prebuildTrees()
		if got := s.repairTries - tries; got != len(s.srcs) {
			t.Fatalf("%d of %d full stale trees attempted a repair: a refresh saw a mid-pass trip", got, len(s.srcs))
		}
		if s.repairs != 0 {
			t.Fatalf("setup: %d repairs succeeded, want none", s.repairs)
		}
		if !s.noRepair {
			t.Fatal("the pass's totals are past the repair switch, but it did not trip")
		}
	})

	t.Run("repair totals", func(t *testing.T) {
		s := stalePass(t)
		// The first source's repair fails and puts the counters past the
		// switch; every later tree has absorbed all growth, so its repair
		// succeeds, and the pass's totals end back under the switch.
		s.repairTries, s.repairs = repairMinTries-1, repairMinTries/repairWinRatio-1
		for i := 1; i < len(s.srcs); i++ {
			s.srcs[i].tree.seq = s.growSeq
		}
		tries, repairs := s.repairTries, s.repairs
		s.prebuildTrees()
		if got := s.repairTries - tries; got != len(s.srcs) {
			t.Fatalf("%d of %d full stale trees attempted a repair: a refresh saw a mid-pass trip", got, len(s.srcs))
		}
		if got := s.repairs - repairs; got != len(s.srcs)-1 {
			t.Fatalf("setup: %d repairs succeeded, want %d", got, len(s.srcs)-1)
		}
		if s.noRepair {
			t.Fatalf("repair switch tripped on %d repairs of %d tries; it is checked once, on the pass's totals",
				s.repairs, s.repairTries)
		}
	})
}
