package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// TestParallelMatchesSerial asserts the runner-pool contract: for the same
// seed, a parallel regeneration of a figure is byte-identical to a serial
// one. Fig. 2a exercises the homogeneous grid runner (flattened
// curve × size engine points), Fig. 9a the decomposition sweep (Detailed
// results reduced per point).
func TestParallelMatchesSerial(t *testing.T) {
	base := Options{Quick: true, Runs: 2, Seed: 3}
	for _, id := range []string{"2a", "9a"} {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			t.Parallel()
			serialOpts := base
			serialOpts.Parallel = 1
			parallelOpts := base
			parallelOpts.Parallel = 4

			serial, err := Registry[id](serialOpts)
			if err != nil {
				t.Fatalf("serial fig %s: %v", id, err)
			}
			parallel, err := Registry[id](parallelOpts)
			if err != nil {
				t.Fatalf("parallel fig %s: %v", id, err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("fig %s: parallel output differs from serial\nserial:   %+v\nparallel: %+v", id, serial, parallel)
			}
			var sb, pb bytes.Buffer
			if err := serial.TSV(&sb); err != nil {
				t.Fatal(err)
			}
			if err := parallel.TSV(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Fatalf("fig %s: TSV output not byte-identical", id)
			}
		})
	}
}

// TestParallelDefaultMatchesExplicitWorkers guards the Parallel=0
// (GOMAXPROCS) default path against order dependence.
func TestParallelDefaultMatchesExplicitWorkers(t *testing.T) {
	base := Options{Quick: true, Runs: 2, Seed: 11}
	def := base
	def.Parallel = 0
	eight := base
	eight.Parallel = 8
	a, err := Fig1b(def)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig1b(eight)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker-count dependence: %+v vs %+v", a, b)
	}
}
