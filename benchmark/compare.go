package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// setFile is a set of recorded runs, the input of -compare.
type setFile struct {
	Runs []setRun `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// recordSet runs each workload n times with consecutive seeds, each run
// in its own process, and writes the set file.
func recordSet(ws []workloadDef, n int, seed int64, seconds float64, trace bool, path string) error {
	var set setFile
	for _, w := range ws {
		for i := 0; i < n; i++ {
			res, err := child(w.Name, seed+int64(i), seconds, trace)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("workload %s seed %d failed its oracle", w.Name, seed+int64(i))
			}
			set.Runs = append(set.Runs, setRun{Workload: w.Name, Seed: seed + int64(i), Result: res})
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set setFile
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range set.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}

// spread is the distance between the first and third quartiles as a
// share of the median, with the quartiles placed as Python's
// statistics.quantiles(xs, n=4) places them (its default "exclusive"
// method), so the figure matches a check written in Python.
func spread(xs []float64) float64 {
	s := sample(xs).sorted()
	if len(s) < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

// compareSets prints, for every (workload, metric) in both sets, each
// set's median and quartile spread, and a verdict against the metric's
// bound. When either set's spread exceeds the bound the medians cannot
// tell a change from noise: the verdict is "unresolved", unless every
// run of B reads better (or worse) than every run of A. Otherwise it is
// "same" when B's median is within the bound of A's in either
// direction, else "worse" or "better". It reports whether every bounded
// metric was "same".
func compareSets(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.Name] = d
	}
	var workloads []string
	for w := range a {
		if _, ok := b[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	agree := true
	fmt.Fprintf(out, "%-16s %-30s %12s %8s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "IQR A", "median B", "IQR B", "change", "bound", "verdict")
	for _, w := range workloads {
		var names []string
		for name := range a[w] {
			if _, ok := b[w][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			d, ok := defs[name]
			if !ok {
				continue
			}
			xa, xb := a[w][name], b[w][name]
			ma, mb := median(xa), median(xb)
			sa, sb := spread(xa), spread(xb)
			change := (mb - ma) / ma
			verdict, bound := "-", "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				// worse is B's change in the metric's bad direction.
				worse, aMin, aMax, bMin, bMax := change, slices.Min(xa), slices.Max(xa), slices.Min(xb), slices.Max(xb)
				if d.Better == "higher" {
					worse, aMin, aMax, bMin, bMax = -change, -aMax, -aMin, -bMax, -bMin
				}
				switch {
				case max(sa, sb) > d.Bound && bMax < aMin:
					verdict = "better"
				case max(sa, sb) > d.Bound && bMin > aMax:
					verdict = "worse"
				case max(sa, sb) > d.Bound:
					verdict = "unresolved"
				case math.Abs(change) <= d.Bound:
					verdict = "same"
				case worse > 0:
					verdict = "worse"
				default:
					verdict = "better"
				}
				if verdict != "same" {
					agree = false
				}
			}
			fmt.Fprintf(out, "%-16s %-30s %12.5g %7.1f%% %12.5g %7.1f%% %+7.1f%% %7s  %s\n",
				w, name, ma, 100*sa, mb, 100*sb, 100*change, bound, verdict)
		}
	}
	return agree, nil
}
