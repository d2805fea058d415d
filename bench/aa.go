package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// runChild runs one workload in a fresh process of this same binary, so
// peak RSS and GC state never leak from one workload into the next, and
// returns the result parsed from the last line of its output.
func runChild(o *options, workload string, seed int64, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace),
		"-out", o.out)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("workload %s seed %d: last output line is not a result: %w", workload, seed, err)
	}
	return &r, nil
}

// runAll runs every workload once with the given seed, a process each.
func runAll(o *options, seed int64, stdout, stderr io.Writer) (map[string]*result, error) {
	results := make(map[string]*result)
	for _, w := range allWorkloads {
		r, err := runChild(o, w.name, seed, stdout, stderr)
		if err != nil {
			return nil, err
		}
		results[w.name] = r
	}
	return results, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the benchmark's acceptance is computed.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worseBy(d metricDef, a, b float64) float64 {
	if d.higher {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// runAA is the A/A check: two complete sets of runs of the same commit,
// each set one run per seed 1..seeds of every workload. A benchmark can
// only tell a regression from noise if (a) within a set, the quartile
// spread of every end-to-end metric stays inside the metric's bound, and
// (b) the second set's median is not worse than the first's by more
// than the bound. With -seeds 1 this is the quick form: every workload
// twice back to back, compared value against value.
func runAA(o *options, stdout, stderr io.Writer) error {
	o.trace = 0
	// values[set][workload][metric] = one value per seed
	var values [2]map[string]map[string][]float64
	incorrect := 0
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for seed := int64(1); seed <= int64(o.seeds); seed++ {
			fmt.Fprintf(stdout, "# A/A set %d seed %d\n", set+1, seed)
			results, err := runAll(o, seed, stdout, stderr)
			if err != nil {
				return err
			}
			for name, r := range results {
				if !r.Correct {
					incorrect++
				}
				if values[set][name] == nil {
					values[set][name] = make(map[string][]float64)
				}
				for m, v := range r.Metrics {
					values[set][name][m] = append(values[set][name][m], v.Value)
				}
			}
		}
	}

	breaches := 0
	fmt.Fprintf(stdout, "\n%-12s %-24s %14s %8s %14s %8s %9s %6s\n",
		"workload", "metric", "median 1", "spread", "median 2", "spread", "worse by", "bound")
	for _, w := range allWorkloads {
		for _, d := range endToEnd {
			a, b := values[0][w.name][d.name], values[1][w.name][d.name]
			sa, sb, worse := spread(a), spread(b), worseBy(d, median(a), median(b))
			mark := ""
			// Set-up time is exempt from the spread rule (it is short and
			// measured few times) but not from the median rule.
			if worse > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-12s %-24s %14.4f %7.2f%% %14.4f %7.2f%% %8.2f%% %5.0f%%%s\n",
				w.name, d.name, median(a), 100*sa, median(b), 100*sb, 100*worse, 100*d.bound, mark)
		}
	}
	switch {
	case incorrect > 0:
		return fmt.Errorf("A/A: %d run(s) reported incorrect outputs", incorrect)
	case breaches > 0:
		return fmt.Errorf("A/A: %d metric(s) outside their bound between two sets of runs of the same commit", breaches)
	}
	return nil
}
