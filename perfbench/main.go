// Command perfbench is weaksim's end-to-end benchmark with a traced
// per-layer ledger. Run it from the repository root through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 24 --trace 0
//
// Workloads (see BENCHMARK.json and README.md for why each exists):
//
//	table1       the paper's Table I rows through the library facade
//	warm-sample  warm /v1/sample requests against an in-process daemon
//	batch-jobs   durable batch jobs against a daemon whose WAL is past its
//	             segment threshold; too few jobs per run to gate on, so
//	             BENCHMARK.json leaves it out and only traced runs use it
//
// With --trace 0 a run sets up its workload several times (setup_s is the
// median), drives it for --seconds and prints six end-to-end metrics:
// setup_s, p50_ms, tail_ms, ops_per_s, shots_per_s and peak_rss_mb. Every
// op's output is checked outside its timed interval; a failed check, a
// non-2xx response or a timeout counts the op as failed.
//
// With --trace 1 the run prints the whole per-layer ledger instead: the
// named workload runs an untraced and then a traced segment of --seconds/2
// each (their ops_per_s ratio is bench.trace_overhead_pct) and the
// other two workloads run one short traced segment each, so every layer is
// measured in every traced run. Layer numbers come from timing calls into
// the facade, from the program's own registry counters (read by name) and
// from the daemon's ?debug=1 phase breakdowns and job phase_ns frames.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A workload is set up, driven through timed segments and finally checked
// against its references.
type workload interface {
	// setUp prepares a fresh instance and returns the time a user pays for
	// it once per process.
	setUp() (time.Duration, error)
	// segment drives the workload for about d (whole ops; at least one op
	// per client). Traced segments also feed the workload's layer ledger.
	segment(d time.Duration, traced bool) segment
	// verify runs the deferred reference checks and returns how many ops,
	// counted as successful so far, failed them.
	verify() int
	// ledger returns the per-layer metrics gathered by traced segments.
	ledger() []metric
	// close stops every daemon and removes the instance's files.
	close()
}

// segment is what one timed stretch of a workload yields.
type segment struct {
	lat       []float64 // per-op latency in ms, failed ops included
	attempted int
	failed    int
	shots     int64         // shots delivered by successful ops
	wall      time.Duration // wall time of the stretch
}

func (s *segment) add(o segment) {
	s.lat = append(s.lat, o.lat...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.shots += o.shots
	s.wall += o.wall
}

func (s segment) opsPerSec() float64 {
	return float64(s.attempted-s.failed) / s.wall.Seconds()
}

// metric is one named number of the final JSON line. absent marks a counter
// the program no longer exports.
type metric struct {
	name   string
	unit   string
	value  float64
	absent bool
}

type spec struct {
	name   string
	setups int // set-ups per untraced run; setup_s is their median
	probe  time.Duration
	make   func(seed uint64, dir string) workload
}

var workloads = []spec{
	{"table1", 25, time.Second, newTable1},
	{"warm-sample", 3, 3 * time.Second, newWarmSample},
	{"batch-jobs", 3, time.Second, newBatchJobs},
}

// deadline bounds a whole run: a hung daemon or job must not keep the
// process alive past the harness limit.
const deadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: table1, warm-sample or batch-jobs")
	seed := flag.Uint64("seed", 1, "seed for the workload's op sequence")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for daemon snapshot and job stores")
	flag.Parse()

	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(2)
	})
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, d time.Duration, traced bool, workdir string) error {
	idx := -1
	for i, w := range workloads {
		if w.name == name {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if d <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	steal := startSteal()
	st := stamp()
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		st.cpu, st.nproc, st.gomaxprocs, st.goVersion, st.commit, st.source)
	fmt.Printf("run workload=%s seed=%d seconds=%.0f trace=%v\n", name, seed, d.Seconds(), traced)

	var out result
	if traced {
		out, err = ledgerRun(idx, seed, d, dir)
	} else {
		out, err = endToEnd(workloads[idx], seed, d, dir)
	}
	if err != nil {
		return err
	}
	stealPct := steal()
	fmt.Printf("host steal_pct=%.3f\n", stealPct)
	if traced {
		out.metrics = append(out.metrics, metric{name: "host.steal_pct", unit: "%", value: stealPct})
	}
	return out.print()
}

// result is the final JSON line.
type result struct {
	attempted, failed int
	metrics           []metric
}

func (r result) print() error {
	for _, m := range r.metrics {
		if m.absent {
			fmt.Printf("  %-34s absent\n", m.name)
			continue
		}
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("  attempted=%d failed=%d\n", r.attempted, r.failed)
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		var v any = m.value
		if m.absent {
			v = "absent"
		} else if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		ms[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd sets the workload up several times (keeping the last instance),
// drives it for d and reports the six end-to-end metrics.
func endToEnd(sp spec, seed uint64, d time.Duration, dir string) (result, error) {
	var setups []float64
	var w workload
	for i := 0; i < sp.setups; i++ {
		if w != nil {
			w.close()
		}
		w = sp.make(seed, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		// Each set-up and the timed phase start from a collected heap, so
		// none pays for garbage an earlier one left.
		runtime.GC()
		t, err := w.setUp()
		if err != nil {
			w.close()
			return result{}, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		setups = append(setups, t.Seconds())
	}
	defer w.close()
	runtime.GC()
	seg := w.segment(d, false)
	seg.failed += w.verify()

	sort.Float64s(seg.lat)
	n := len(seg.lat)
	rank := tailRank(n)
	fmt.Printf("  latency n=%d tail=p%.2f (rank %d, %d beyond)\n", n, 100*float64(rank)/float64(n), rank, n-rank)
	return result{
		attempted: seg.attempted,
		failed:    seg.failed,
		metrics: []metric{
			{name: "setup_s", unit: "s", value: median(setups)},
			{name: "p50_ms", unit: "ms", value: median(seg.lat)},
			{name: "tail_ms", unit: "ms", value: seg.lat[rank-1]},
			{name: "ops_per_s", unit: "1/s", value: seg.opsPerSec()},
			{name: "shots_per_s", unit: "1/s", value: float64(seg.shots) / seg.wall.Seconds()},
			{name: "peak_rss_mb", unit: "MB", value: peakRSSMB()},
		},
	}, nil
}

// ledgerRun measures every per-layer metric: the named workload in an
// untraced and a traced half of d, the others in one short traced segment
// each.
func ledgerRun(named int, seed uint64, d time.Duration, dir string) (result, error) {
	var out result
	var overhead float64
	for i, sp := range workloads {
		w := sp.make(seed, filepath.Join(dir, sp.name))
		if _, err := w.setUp(); err != nil {
			w.close()
			return result{}, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		var all segment
		if i == named {
			var plain, traced segment
			for q := 0; q < 2; q++ {
				runtime.GC()
				s := w.segment(d/2, q == 1)
				if q%2 == 1 {
					traced.add(s)
				} else {
					plain.add(s)
				}
				all.add(s)
			}
			overhead = 100 * (plain.opsPerSec()/traced.opsPerSec() - 1)
			fmt.Printf("  %s untraced ops_per_s=%.4f traced ops_per_s=%.4f\n", sp.name, plain.opsPerSec(), traced.opsPerSec())
		} else {
			all = w.segment(sp.probe, true)
		}
		all.failed += w.verify()
		out.attempted += all.attempted
		out.failed += all.failed
		out.metrics = append(out.metrics, w.ledger()...)
		w.close()
	}
	out.metrics = append(out.metrics, metric{name: "bench.trace_overhead_pct", unit: "%", value: overhead})
	return out, nil
}
