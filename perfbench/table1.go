package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"weaksim"
)

// table1Rows are the Table I rows the workload runs, with the frozen DD size
// each must reproduce (the "DD size" column of benchtable_fast.txt).
// grover_20 (about a minute of apply) and shor_69_4 (about 8 s) are left
// out: either would own the run.
var table1Rows = []struct {
	name  string
	nodes int
}{
	{"qft_16", 16},
	{"qft_32", 32},
	{"qft_48", 48},
	{"shor_33_2", 49105},
	{"shor_55_2", 94167},
	{"jellium_2x2", 53},
	{"jellium_3x3", 19738},
	{"supremacy_4x4_10", 62349},
}

// table1Shots is the paper's sample count per row.
const table1Shots = 1_000_000

// table1WalkShots is the length of the bare ShotIndex loop a traced op
// times to split sampling into walk and tally.
const table1WalkShots = 1 << 18

// table1 is one caller driving the library facade with default options.
// An op is one row: Simulate, State.Sampler, Sampler.CountsByIndex(10^6).
// Ops run in passes over all rows, each pass in a seeded order.
type table1 struct {
	seed  uint64
	circs []*weaksim.Circuit
	pass  int
	// prints is the fingerprint of each row's counts the first time it
	// ran: every later run of the row must reproduce it bit for bit.
	prints map[string]uint64
	passes []table1Ledger // one per traced pass
}

// table1Ledger sums one traced pass's layer numbers over the eight rows.
type table1Ledger struct {
	applyMS, freezeMS, sampleMS float64
	walkNS                      float64 // sum of per-row walk ns/shot
	snapNodes                   float64
	counters                    map[string]float64
	gauges                      map[string]float64
	gaugeOK                     map[string]bool
}

func newTable1(seed uint64, _ string) workload {
	return &table1{seed: seed, prints: map[string]uint64{}}
}

func (t *table1) setUp() (time.Duration, error) {
	start := time.Now()
	t.circs = t.circs[:0]
	for _, r := range table1Rows {
		c, err := weaksim.GenerateBenchmark(r.name)
		if err != nil {
			return 0, err
		}
		t.circs = append(t.circs, c)
	}
	return time.Since(start), nil
}

func (t *table1) segment(d time.Duration, traced bool) segment {
	// One caller: the timed wall time is the sum of the ops' own intervals,
	// so the output checks and the collections between ops stay outside it.
	var seg segment
	for seg.attempted == 0 || seg.wall < d {
		r := rand.New(rand.NewPCG(t.seed, uint64(t.pass)))
		t.pass++
		var led *table1Ledger
		if traced {
			t.passes = append(t.passes, table1Ledger{
				counters: map[string]float64{}, gauges: map[string]float64{}, gaugeOK: map[string]bool{},
			})
			led = &t.passes[len(t.passes)-1]
		}
		for _, i := range r.Perm(len(table1Rows)) {
			// Every op starts from a collected heap, so no row pays for the
			// previous row's garbage.
			runtime.GC()
			ms, err := t.op(i, led)
			seg.attempted++
			seg.lat = append(seg.lat, ms)
			seg.wall += time.Duration(ms * 1e6)
			if err != nil {
				seg.failed++
				fmt.Fprintf(os.Stderr, "table1 %s: %v\n", table1Rows[i].name, err)
				continue
			}
			seg.shots += table1Shots
		}
	}
	return seg
}

// table1Counters are the registry counters a traced op reads by name.
var table1Counters = []string{
	"dd_unique_v_hits_total", "dd_unique_v_misses_total",
	"dd_unique_m_hits_total", "dd_unique_m_misses_total",
	"dd_unique_probe_len",
	"dd_cache_hits_total", "dd_cache_misses_total",
	"dd_cache_evictions_total", "dd_gc_runs_total",
	"cnum_intern_hits_total", "cnum_intern_misses_total",
}

// op runs one row and checks it outside the timed interval.
func (t *table1) op(i int, led *table1Ledger) (float64, error) {
	row := table1Rows[i]
	var opts []weaksim.Option
	var reg *weaksim.Metrics
	if led != nil {
		reg = weaksim.NewMetrics()
		opts = append(opts, weaksim.WithMetrics(reg))
	}
	t0 := time.Now()
	st, err := weaksim.Simulate(t.circs[i], opts...)
	if err != nil {
		return msSince(t0), err
	}
	t1 := time.Now()
	// Only the strong simulation is traced: sampling stays on the untraced
	// path so core.sample_ms is what users pay.
	smp, err := st.Sampler(weaksim.WithMetrics(nil))
	if err != nil {
		return msSince(t0), err
	}
	t2 := time.Now()
	counts := smp.CountsByIndex(table1Shots)
	t3 := time.Now()
	ms := float64(t3.Sub(t0).Nanoseconds()) / 1e6

	if n := smp.SnapshotNodes(); n != row.nodes {
		return ms, fmt.Errorf("frozen DD has %d nodes, Table I says %d", n, row.nodes)
	}
	fp, sum := fingerprint(counts)
	if sum != table1Shots {
		return ms, fmt.Errorf("counts sum to %d, want %d", sum, table1Shots)
	}
	if prev, ok := t.prints[row.name]; !ok {
		t.prints[row.name] = fp
	} else if prev != fp {
		return ms, fmt.Errorf("counts differ from the row's first run")
	}

	if led != nil {
		led.applyMS += float64(t1.Sub(t0).Nanoseconds()) / 1e6
		led.freezeMS += float64(t2.Sub(t1).Nanoseconds()) / 1e6
		led.sampleMS += float64(t3.Sub(t2).Nanoseconds()) / 1e6
		var sink uint64
		w0 := time.Now()
		for k := 0; k < table1WalkShots; k++ {
			sink ^= smp.ShotIndex()
		}
		led.walkNS += float64(time.Since(w0).Nanoseconds()) / table1WalkShots
		walkSink ^= sink
		led.snapNodes += float64(smp.SnapshotNodes())
		rg := registry{reg}
		for name, v := range rg.counters(table1Counters...) {
			led.counters[name] += v
		}
		for _, g := range []string{"dd_peak_nodes", "cnum_table_entries"} {
			if v, ok := rg.gauge(g); ok {
				led.gaugeOK[g] = true
				if g == "dd_peak_nodes" {
					led.gauges[g] = max(led.gauges[g], v)
				} else {
					led.gauges[g] += v
				}
			}
		}
	}
	return ms, nil
}

// walkSink keeps the bare walk loop from being optimized away.
var walkSink uint64

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// fingerprint is an order-independent hash of a tally plus its shot sum.
func fingerprint(counts map[uint64]int) (uint64, int64) {
	var fp uint64
	var sum int64
	for k, v := range counts {
		fp += mix64(k ^ mix64(uint64(v)))
		sum += int64(v)
	}
	return fp, sum
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *table1) verify() int { return 0 }

func (t *table1) close() {}

// ledger reports, for each layer, the median over traced passes of the
// pass's sum over all rows (peak nodes: the largest row).
func (t *table1) ledger() []metric {
	per := func(f func(l table1Ledger) (float64, bool)) (float64, bool) {
		var xs []float64
		for _, l := range t.passes {
			if v, ok := f(l); ok {
				xs = append(xs, v)
			}
		}
		return median(xs), len(xs) > 0 && len(xs) == len(t.passes)
	}
	ctr := func(names ...string) func(l table1Ledger) (float64, bool) {
		return func(l table1Ledger) (float64, bool) {
			var s float64
			for _, n := range names {
				v, ok := l.counters[n]
				if !ok {
					return 0, false
				}
				s += v
			}
			return s, true
		}
	}
	ratio := func(num, den func(l table1Ledger) (float64, bool)) func(l table1Ledger) (float64, bool) {
		return func(l table1Ledger) (float64, bool) {
			a, ok1 := num(l)
			b, ok2 := den(l)
			return a / b, ok1 && ok2 && b > 0
		}
	}
	gauge := func(name string) func(l table1Ledger) (float64, bool) {
		return func(l table1Ledger) (float64, bool) { return l.gauges[name], l.gaugeOK[name] }
	}
	rows := float64(len(table1Rows))
	uniqueHits := ctr("dd_unique_v_hits_total", "dd_unique_m_hits_total")
	uniqueAll := ctr("dd_unique_v_hits_total", "dd_unique_m_hits_total", "dd_unique_v_misses_total", "dd_unique_m_misses_total")
	var out []metric
	add := func(name, unit string, f func(l table1Ledger) (float64, bool)) {
		v, ok := per(f)
		out = append(out, metric{name: name, unit: unit, value: v, absent: !ok})
	}
	add("sim.apply_ms", "ms", func(l table1Ledger) (float64, bool) { return l.applyMS, true })
	add("dd.freeze_ms", "ms", func(l table1Ledger) (float64, bool) { return l.freezeMS, true })
	add("core.sample_ms", "ms", func(l table1Ledger) (float64, bool) { return l.sampleMS, true })
	add("core.walk_ns_per_shot", "ns", func(l table1Ledger) (float64, bool) { return l.walkNS / rows, true })
	add("core.tally_ns_per_shot", "ns", func(l table1Ledger) (float64, bool) {
		return l.sampleMS*1e6/(rows*table1Shots) - l.walkNS/rows, true
	})
	add("dd.peak_nodes", "count", gauge("dd_peak_nodes"))
	add("dd.snapshot_nodes", "count", func(l table1Ledger) (float64, bool) { return l.snapNodes, true })
	add("dd.unique_hit_ratio", "ratio", ratio(uniqueHits, uniqueAll))
	add("dd.unique_probe_len", "steps", ratio(ctr("dd_unique_probe_len"), uniqueAll))
	add("dd.compute_cache_hit_ratio", "ratio", ratio(ctr("dd_cache_hits_total"), ctr("dd_cache_hits_total", "dd_cache_misses_total")))
	add("dd.cache_evictions", "count", ctr("dd_cache_evictions_total"))
	add("dd.gc_runs", "count", ctr("dd_gc_runs_total"))
	add("cnum.intern_lookups", "count", ctr("cnum_intern_hits_total", "cnum_intern_misses_total"))
	add("cnum.table_entries", "count", gauge("cnum_table_entries"))
	return out
}
