package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"weaksim"
	"weaksim/internal/job"
)

// jobCircuits is the batch-jobs circuit set, drawn uniformly per job.
var jobCircuits = []string{"jellium_2x2", "shor_55_2", "qft_16"}

const (
	jobTenants   = 2
	jobShots     = 1 << 18
	prefillShots = 1 << 16 // one chunk at the server's default chunk size
	// prefillCap bounds the pre-fill: far more jobs than the WAL threshold
	// needs means the threshold moved or the gauge is gone.
	prefillCap    = 200
	jobCheckEvery = 4 // every this many jobs per tenant is compared to the facade
)

// jobPhases are the phase_ns entries of a job's terminal frame.
var jobPhases = []string{"snapshot", "sample", "wal"}

// batchJobs is an in-process daemon with a durable job store, driven by two
// tenants that each submit a job, wait for its terminal events frame and
// fetch its result, in a closed loop. Set-up primes the three circuits'
// snapshots and then retires single-chunk qft_16 jobs until the WAL's
// compacted live state is past its segment threshold: the state of a
// long-running daemon that has served many-outcome jobs.
type batchJobs struct {
	seed    uint64
	dir     string
	prefix  [][]byte
	d       *weaksim.Daemon
	reg     registry
	ops     [jobTenants]int
	walSize float64 // compacted WAL bytes after the pre-fill
	prefill int

	// Traced-segment ledger.
	mu                   sync.Mutex
	phaseMS              map[string]float64 // summed over traced jobs
	phaseAbsent          bool
	wallMS               float64
	jobs                 float64
	records, chunks      float64
	diskBytes, snapWrite float64
	regOK                bool

	kept []jobKept
}

// jobKept is a result saved for the reference comparison after the run.
type jobKept struct {
	circuit    int
	seed       uint64
	chunkShots int
	body       []byte
}

func newBatchJobs(seed uint64, dir string) workload {
	return &batchJobs{seed: seed, dir: dir, phaseMS: map[string]float64{}, regOK: true}
}

func (b *batchJobs) setUp() (time.Duration, error) {
	var err error
	if b.prefix, err = requestPrefixes(jobCircuits...); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return 0, err
	}

	start := time.Now()
	reg := weaksim.NewMetrics()
	d, err := weaksim.Serve(weaksim.ServeConfig{
		Addr:        "127.0.0.1:0",
		SnapshotDir: filepath.Join(b.dir, "snapshots"),
		JobsDir:     filepath.Join(b.dir, "jobs"),
	}, weaksim.WithMetrics(reg))
	if err != nil {
		return 0, err
	}
	b.d, b.reg = d, registry{reg}
	cl := newClient(d.Addr())
	defer cl.close()
	var body []byte
	for i := range jobCircuits {
		body = sampleBody(body, b.prefix[i], 1, 1)
		status, resp, err := cl.do("POST", "/v1/sample", body)
		if err == nil {
			err = checkSample(status, resp, 1, false)
		}
		if err != nil {
			return 0, fmt.Errorf("prime %s: %w", jobCircuits[i], err)
		}
	}
	r := rand.New(rand.NewPCG(b.seed, 1<<63))
	qft16 := len(jobCircuits) - 1
	for {
		if b.prefill == prefillCap {
			return 0, fmt.Errorf("WAL still below %d bytes after %d pre-fill jobs", job.DefaultSegmentBytes, prefillCap)
		}
		b.prefill++
		if _, _, err := b.run(cl, qft16, prefillShots, r.Uint64(), "prefill"); err != nil {
			return 0, fmt.Errorf("pre-fill job %d: %w", b.prefill, err)
		}
		// The result fetch waited for the commit, and a rotation, if any,
		// to finish: the gauge now holds the compacted size.
		size, ok := b.reg.gauge("job_wal_bytes")
		if !ok {
			return 0, errors.New("daemon exports no job_wal_bytes gauge")
		}
		if size >= job.DefaultSegmentBytes {
			b.walSize = size
			break
		}
	}
	return time.Since(start), nil
}

// jobFrame is the part of a job status or events frame the benchmark reads.
type jobFrame struct {
	ID         string             `json:"job_id"`
	State      string             `json:"state"`
	ChunkShots int                `json:"chunk_shots"`
	PhaseNS    map[string]float64 `json:"phase_ns"`
	Terminal   bool               `json:"terminal"`
	Error      string             `json:"error"`
}

// run submits one job, waits for its terminal events frame and fetches its
// result, checking that it completed with counts summing to the shots. It
// returns the terminal frame and the result body (valid until the next
// request on cl).
func (b *batchJobs) run(cl *client, circuit, shots int, seed uint64, tenant string) (jobFrame, []byte, error) {
	var st jobFrame
	body := append([]byte(nil), b.prefix[circuit]...)
	body = fmt.Appendf(body, `"shots":%d,"seed":%d,"tenant":%q}`, shots, seed, tenant)
	status, resp, err := cl.do("POST", "/v1/jobs", body)
	if err != nil {
		return st, nil, err
	}
	if status != 202 {
		return st, nil, fmt.Errorf("submit: status %d: %.200s", status, resp)
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return st, nil, fmt.Errorf("submit: %w", err)
	}
	chunkShots := st.ChunkShots

	status, resp, err = cl.do("GET", "/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		return st, nil, err
	}
	if status != 200 {
		return st, nil, fmt.Errorf("events: status %d: %.200s", status, resp)
	}
	frames := strings.Split(strings.TrimSpace(string(resp)), "\n")
	if err := json.Unmarshal([]byte(frames[len(frames)-1]), &st); err != nil {
		return st, nil, fmt.Errorf("events: %w", err)
	}
	st.ChunkShots = chunkShots
	if !st.Terminal || st.State != "completed" {
		return st, nil, fmt.Errorf("job %s ended %s (terminal=%v): %s", st.ID, st.State, st.Terminal, st.Error)
	}

	status, resp, err = cl.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return st, nil, err
	}
	if status != 200 {
		return st, nil, fmt.Errorf("result: status %d: %.200s", status, resp)
	}
	if sum, _, ok := countsSum(resp); !ok || sum != int64(shots) {
		return st, nil, fmt.Errorf("result counts sum to %d, want %d", sum, shots)
	}
	return st, resp, nil
}

func (b *batchJobs) segment(d time.Duration, traced bool) segment {
	var c0 map[string]float64
	var io0 int64
	if traced {
		c0 = b.reg.counters("job_wal_records_total", "job_chunks_done_total", "snapstore_writes_total")
		io0 = diskWriteBytes()
	}
	seg := concurrently(jobTenants, func(t int, start time.Time) segment {
		return b.tenant(t, start, d, traced)
	})
	if traced {
		c1 := b.reg.counters("job_wal_records_total", "job_chunks_done_total", "snapstore_writes_total")
		b.regOK = b.regOK && len(c0) == 3 && len(c1) == 3
		b.records += c1["job_wal_records_total"] - c0["job_wal_records_total"]
		b.chunks += c1["job_chunks_done_total"] - c0["job_chunks_done_total"]
		b.snapWrite += c1["snapstore_writes_total"] - c0["snapstore_writes_total"]
		b.diskBytes += float64(diskWriteBytes() - io0)
	}
	return seg
}

// tenant is one closed loop over its own seeded job sequence.
func (b *batchJobs) tenant(t int, start time.Time, d time.Duration, traced bool) segment {
	cl := newClient(b.d.Addr())
	defer cl.close()
	name := fmt.Sprintf("tenant-%d", t)
	var seg segment
	// Each round of len(jobCircuits) jobs runs every circuit once, in a
	// seeded order, and a tenant stops only at a round boundary: every run
	// retires the same mix of many-outcome jobs whatever the seed, and the
	// storm's growth of the retained state is the same from run to run.
	for seg.attempted == 0 || b.ops[t]%len(jobCircuits) != 0 || time.Since(start) < d {
		k := b.ops[t]
		b.ops[t]++
		round := k / len(jobCircuits)
		r := rand.New(rand.NewPCG(b.seed, uint64(t)<<32|uint64(round)))
		ci := r.Perm(len(jobCircuits))[k%len(jobCircuits)]
		seed := rand.New(rand.NewPCG(b.seed, uint64(t)<<32|uint64(k)|1<<62)).Uint64()

		t0 := time.Now()
		fr, resp, err := b.run(cl, ci, jobShots, seed, name)
		ms := msSince(t0)
		seg.attempted++
		seg.lat = append(seg.lat, ms)
		if err != nil {
			seg.failed++
			fmt.Fprintf(os.Stderr, "batch-jobs %s: %v\n", jobCircuits[ci], err)
			continue
		}
		seg.shots += jobShots
		b.mu.Lock()
		if k%jobCheckEvery == 0 {
			b.kept = append(b.kept, jobKept{circuit: ci, seed: seed, chunkShots: fr.ChunkShots, body: bytes.Clone(resp)})
		}
		if traced {
			b.jobs++
			b.wallMS += ms
			for _, p := range jobPhases {
				v, ok := fr.PhaseNS[p]
				b.phaseMS[p] += v / 1e6
				b.phaseAbsent = b.phaseAbsent || !ok
			}
		}
		b.mu.Unlock()
	}
	return seg
}

// streamSeed is the seed of chunk k's random stream, as the job API
// documents it: rng.Stream(seed, k), which is New(seed) for chunk 0 and a
// double SplitMix64 scramble of (seed, k) otherwise.
func streamSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	z := mix64(seed + uint64(k)*0x9e3779b97f4a7c15)
	return mix64(z ^ uint64(k))
}

// verify recomputes the kept jobs chunk by chunk with the library facade,
// seeding chunk k from streamSeed(seed, k): bit-identical counts or the job
// fails.
func (b *batchJobs) verify() int {
	failed := 0
	refs := references{}
	for _, k := range b.kept {
		st, err := refs.state(jobCircuits[k.circuit])
		if err != nil {
			fmt.Fprintf(os.Stderr, "batch-jobs reference %s: %v\n", jobCircuits[k.circuit], err)
			failed++
			continue
		}
		want := map[string]int{}
		for i, left := 0, jobShots; k.chunkShots > 0 && left > 0; i++ {
			n := min(k.chunkShots, left)
			left -= n
			smp, err := st.Sampler(weaksim.WithSeed(streamSeed(k.seed, i)))
			if err != nil {
				break
			}
			for bits, c := range smp.Counts(n) {
				want[bits] += c
			}
		}
		var got struct {
			Counts map[string]int `json:"counts"`
		}
		if k.chunkShots <= 0 || json.Unmarshal(k.body, &got) != nil || !maps.Equal(got.Counts, want) {
			fmt.Fprintf(os.Stderr, "batch-jobs %s seed=%d: counts differ from the per-chunk reference\n",
				jobCircuits[k.circuit], k.seed)
			failed++
		}
	}
	fmt.Printf("  batch-jobs reference checks=%d failed=%d prefill_jobs=%d wal_bytes=%.0f\n",
		len(b.kept), failed, b.prefill, b.walSize)
	return failed
}

func (b *batchJobs) close() {
	if b.d != nil {
		shutdown(b.d)
		b.d = nil
	}
	_ = os.RemoveAll(b.dir)
}

func (b *batchJobs) ledger() []metric {
	perJob := func(v float64) float64 { return v / b.jobs }
	out := []metric{{name: "job.wal_bytes", unit: "B", value: b.walSize}}
	attributed := 0.0
	for _, p := range jobPhases {
		out = append(out, metric{name: "job." + p + "_ms", unit: "ms", value: perJob(b.phaseMS[p]), absent: b.phaseAbsent})
		attributed += b.phaseMS[p]
	}
	out = append(out,
		metric{name: "job.unattributed_ms", unit: "ms", value: perJob(b.wallMS - attributed), absent: b.phaseAbsent},
		metric{name: "job.wal_records_per_chunk", unit: "count", value: b.records / b.chunks, absent: !b.regOK || b.chunks == 0},
		metric{name: "job.disk_write_bytes_per_chunk", unit: "B", value: b.diskBytes / b.chunks, absent: !b.regOK || b.chunks == 0},
		metric{name: "snapstore.writes", unit: "count", value: b.snapWrite, absent: !b.regOK},
	)
	return out
}
