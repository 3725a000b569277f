// Command benchmark is the repository's benchmark: four oracle-checked
// workloads, each driven by one client in a closed loop, over the
// certified labeled-union-find service (server, wal, replica,
// concurrent, cert, shard, client) and over the paper's own analyzer and
// solver, with per-layer traces.
//
// One run measures one workload and prints, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}:
//
//	benchmark -workload mixed-sync -seed 1 -seconds 10 -trace 0
//
// Without -workload it runs every workload, each in its own process.
// -trace 1 reports the per-layer metrics instead of the end-to-end ones
// and writes out/trace-<workload>.json. -runs N -out FILE records N
// seeded runs per workload into a set file, and -compare A B compares
// two set files metric by metric against the declared bounds.
//
// benchmark/run.sh builds the command from the checkout and runs it with
// every build and run file kept inside the checkout; see README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload, each in its own process)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 25, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs traced: per-layer metrics and a trace file instead of the end-to-end metrics")
	runs := flag.Int("runs", 0, "record this many runs per workload (seeds seed, seed+1, ...) into the -out set file")
	out := flag.String("out", "", "set file written by -runs")
	compare := flag.Bool("compare", false, "compare the two set files given as arguments and exit non-zero if any metric moved beyond its bound")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	selected := workloadDefs
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		selected = []workloadDef{w}
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two set files")
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *runs > 0:
		if *out == "" {
			fatalf("-runs needs -out")
		}
		if err := recordSet(selected, *runs, *seed, *seconds, *trace == 1, *out); err != nil {
			fatalf("%v", err)
		}
	case *workload != "":
		rep, err := runWorkload(selected[0], *seed, *seconds, *trace == 1, false, outDir())
		if err != nil {
			fatalf("%v", err)
		}
		printReport(os.Stdout, selected[0].Name, *seed, rep)
		line, _ := json.Marshal(rep.res)
		fmt.Println(string(line))
		if !rep.res.Correct {
			os.Exit(1)
		}
	default:
		if !runAll(selected, *seed, *seconds, *trace == 1) {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// outDir is where trace files and scratch state go: benchmark/out
// under the checkout root, or ./out when run from benchmark/ itself.
func outDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark/out"
	}
	return "out"
}

// child runs one workload in its own process (so peak RSS and the Go
// runtime belong to that workload alone), echoes its report, and
// returns its result line.
func child(w string, seed int64, seconds float64, trace bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	if scanErr != nil {
		_, _ = io.Copy(io.Discard, stdout) // let the child finish writing
	}
	waitErr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || scanErr != nil {
		return res, fmt.Errorf("workload %s seed %d: no result line (exit: %v, read: %v)", w, seed, waitErr, scanErr)
	}
	return res, nil
}

// runAll runs every selected workload in its own process and prints a
// combined result line; traced, it also runs each workload untraced
// and reports the tracing overhead on the median latency.
func runAll(ws []workloadDef, seed int64, seconds float64, trace bool) bool {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	var overhead []string
	for _, w := range ws {
		res, err := child(w.Name, seed, seconds, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.Name+"/"+k] = v
		}
		if trace {
			base, err := child(w.Name, seed, seconds, false)
			untraced, traced := base.Metrics["key_p50_refms"].Value, res.Metrics["trace.key_p50_refms"].Value
			switch {
			case err != nil:
				overhead = append(overhead, fmt.Sprintf("  %-16s untraced run: %v", w.Name, err))
			case untraced <= 0 || traced <= 0:
				overhead = append(overhead, fmt.Sprintf("  %-16s key p50 missing (untraced %v, traced %v)", w.Name, untraced, traced))
			default:
				overhead = append(overhead, fmt.Sprintf("  %-16s key p50 %.4g ref-ms untraced, %.4g ref-ms traced (%+.1f%%)",
					w.Name, untraced, traced, 100*(traced/untraced-1)))
			}
		}
	}
	if len(overhead) > 0 {
		fmt.Println("tracing overhead:\n" + strings.Join(overhead, "\n"))
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return all.Correct
}
