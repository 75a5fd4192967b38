package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/runner"
)

// TestParallelMatchesSerial asserts the runner contract: for the same
// seed, a parallel regeneration of a figure is byte-identical to a serial
// one. Fig. 2a exercises the homogeneous grid runner (flattened
// curve × size engine points), Fig. 8b a hetero family (three curves
// measured in one engine call, all normalized by the first curve's x = 1
// value), Fig. 9a the decomposition sweep (Detailed results reduced per
// point). The subtests set the process-wide worker bound, so they run one
// at a time.
func TestParallelMatchesSerial(t *testing.T) {
	defer runner.SetMaxInFlight(0)
	opts := Options{Quick: true, Runs: 2, Seed: 3}
	for _, id := range []string{"2a", "8b", "9a"} {
		t.Run("fig"+id, func(t *testing.T) {
			runner.SetMaxInFlight(1)
			serial, err := Registry(id)(opts)
			if err != nil {
				t.Fatalf("serial fig %s: %v", id, err)
			}
			runner.SetMaxInFlight(4)
			parallel, err := Registry(id)(opts)
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

// TestParallelDefaultMatchesExplicitWorkers guards the default
// (GOMAXPROCS) worker bound against order dependence.
func TestParallelDefaultMatchesExplicitWorkers(t *testing.T) {
	defer runner.SetMaxInFlight(0)
	opts := Options{Quick: true, Runs: 2, Seed: 11}
	a, err := Fig1b(opts)
	if err != nil {
		t.Fatal(err)
	}
	runner.SetMaxInFlight(8)
	b, err := Fig1b(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker-count dependence: %+v vs %+v", a, b)
	}
}
