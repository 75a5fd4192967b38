package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// record is one run as appended to runs.jsonl: where it ran, what it ran
// and what it measured.
type record struct {
	Env      env    `json:"env"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(r record) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compare prints, per workload and metric, the median of the old and the
// new runs and their relative change. It refuses runs taken on different
// CPU counts: a number from another nproc is not the same measurement.
func compare(w io.Writer, oldPath, newPath string) error {
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	nprocs := map[int]bool{}
	for _, r := range append(append([]record(nil), oldRecs...), newRecs...) {
		nprocs[r.Env.NProc] = true
	}
	if len(nprocs) > 1 {
		return fmt.Errorf("refusing to compare runs taken on different nproc %v", keys(nprocs))
	}
	type key struct{ workload, metric string }
	vals := func(recs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	ov, nv := vals(oldRecs), vals(newRecs)
	var ks []key
	for k := range ov {
		if _, ok := nv[k]; ok {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].workload != ks[j].workload {
			return ks[i].workload < ks[j].workload
		}
		return ks[i].metric < ks[j].metric
	})
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %9s\n", "workload", "metric", "old median", "new median", "change")
	for _, k := range ks {
		o, n := median(ov[k]), median(nv[k])
		change := "n/a"
		if o != 0 {
			change = fmt.Sprintf("%+.1f%%", (n/o-1)*100)
		}
		fmt.Fprintf(w, "%-12s %-28s %14.4f %14.4f %9s\n", k.workload, k.metric, o, n, change)
	}
	return nil
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
