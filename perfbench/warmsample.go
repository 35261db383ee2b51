package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"weaksim"
)

// warmCircuits is the warm-sample circuit set, drawn uniformly per request.
var warmCircuits = [...]string{"jellium_2x2", "qft_16", "qft_48", "shor_55_2", "supremacy_4x4_10"}

const (
	warmClients    = 2
	smallShots     = 1 << 10
	largeShots     = 1 << 16
	warmCheckEvery = 128 // every this many ops per client is compared to the facade
)

// coldPhases are the ?debug=1 phases a cold /v1/sample runs through, in
// order; whatever the client waits for outside them is unattributed.
var coldPhases = []string{"parse", "queue", "build", "apply", "freeze", "sample"}

// warmSample is an in-process daemon serving warm /v1/sample requests to
// two closed-loop clients. Set-up boots it on a fresh snapshot directory,
// sends one cold request per circuit, shuts it down and restarts it on the
// same directory, so set-up covers the cold request path and the snapstore
// warm restart.
type warmSample struct {
	seed   uint64
	dir    string
	prefix [][]byte
	d      *weaksim.Daemon
	reg    registry
	ops    [warmClients]int // ops issued per client, across segments

	// Set-up ledger.
	coldWallMS float64
	coldMS     map[string]float64 // summed over the cold requests
	coldAbsent map[string]bool    // phases some cold request did not report
	restartMS  float64
	snapBytes  int64

	// Traced-segment ledger.
	mu                         sync.Mutex
	parseMS, sampleMS, respMS  []float64 // small requests
	lgShots, lgSampleNS, lgRsp float64   // large requests, summed
	lgBytes                    float64
	lgOK                       bool
	hits, lookups, sims        float64
	regOK                      bool

	kept []warmKept
}

// warmKept is a response saved for the facade comparison after the run.
type warmKept struct {
	circuit int
	shots   int
	seed    uint64
	body    []byte
}

func newWarmSample(seed uint64, dir string) workload {
	return &warmSample{seed: seed, dir: dir, coldMS: map[string]float64{}, coldAbsent: map[string]bool{}}
}

func (w *warmSample) serve() (*weaksim.Daemon, registry, error) {
	reg := weaksim.NewMetrics()
	d, err := weaksim.Serve(weaksim.ServeConfig{Addr: "127.0.0.1:0", SnapshotDir: w.dir}, weaksim.WithMetrics(reg))
	return d, registry{reg}, err
}

func (w *warmSample) setUp() (time.Duration, error) {
	var err error
	if w.prefix, err = requestPrefixes(warmCircuits[:]...); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return 0, err
	}

	start := time.Now()
	d, _, err := w.serve()
	if err != nil {
		return 0, err
	}
	cl := newClient(d.Addr())
	var body []byte
	for i := range warmCircuits {
		body = sampleBody(body, w.prefix[i], smallShots, 1)
		t0 := time.Now()
		status, resp, err := cl.do("POST", "/v1/sample?debug=1", body)
		wall := msSince(t0)
		if err == nil {
			err = checkSample(status, resp, smallShots, false)
		}
		if err != nil {
			cl.close()
			shutdown(d)
			return 0, fmt.Errorf("cold %s: %w", warmCircuits[i], err)
		}
		w.coldWallMS += wall
		phases, _ := tracePhases(resp)
		for _, p := range coldPhases {
			v, ok := phases[p]
			w.coldMS[p] += v / 1e6
			w.coldAbsent[p] = w.coldAbsent[p] || !ok
		}
	}
	cl.close()
	shutdown(d)

	t0 := time.Now()
	w.d, w.reg, err = w.serve()
	if err != nil {
		return 0, err
	}
	w.restartMS = msSince(t0)
	elapsed := time.Since(start)
	w.snapBytes = dirBytes(w.dir)
	return elapsed, nil
}

// checkSample checks a /v1/sample response without decoding it: status
// 200, the cache temperature expected, and counts summing to the shots.
func checkSample(status int, body []byte, shots int, cached bool) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	sum, end, ok := countsSum(body)
	if !ok {
		return errors.New("response has no counts object")
	}
	if sum != int64(shots) {
		return fmt.Errorf("counts sum to %d, want %d", sum, shots)
	}
	want := []byte(`"cached":false`)
	if cached {
		want = []byte(`"cached":true`)
	}
	if !bytes.Contains(body[end:], want) {
		return fmt.Errorf("response is not %s", want)
	}
	return nil
}

// traceKey starts the ?debug=1 trace echo, the last field of a response.
var traceKey = []byte(`,"trace":`)

// tracePhases decodes the phase_ns breakdown of a ?debug=1 response, and
// returns the length of the response without the trace echo.
func tracePhases(body []byte) (map[string]float64, int) {
	i := bytes.LastIndex(body, traceKey)
	if i < 0 {
		return nil, len(body)
	}
	var tr struct {
		PhaseNS map[string]float64 `json:"phase_ns"`
	}
	end := bytes.LastIndexByte(body, '}')
	if end <= i {
		return nil, i
	}
	_ = json.Unmarshal(body[i+len(traceKey):end], &tr)
	return tr.PhaseNS, i
}

func (w *warmSample) segment(d time.Duration, traced bool) segment {
	var c0 map[string]float64
	if traced {
		c0 = w.reg.counters("serve_cache_hits_total", "serve_cache_misses_total", "serve_sims_total")
	}
	seg := concurrently(warmClients, func(c int, start time.Time) segment {
		return w.client(c, start, d, traced)
	})
	if traced {
		c1 := w.reg.counters("serve_cache_hits_total", "serve_cache_misses_total", "serve_sims_total")
		w.regOK = len(c0) == 3 && len(c1) == 3
		w.hits += c1["serve_cache_hits_total"] - c0["serve_cache_hits_total"]
		w.lookups += c1["serve_cache_hits_total"] + c1["serve_cache_misses_total"] -
			c0["serve_cache_hits_total"] - c0["serve_cache_misses_total"]
		w.sims += c1["serve_sims_total"] - c0["serve_sims_total"]
	}
	return seg
}

// warmRound is the length of a round: per circuit, smallPerRound requests of
// smallShots and largePerRound of largeShots.
const (
	smallPerRound = 7
	largePerRound = 3
	warmRound     = (smallPerRound + largePerRound) * len(warmCircuits)
)

type warmReq struct{ circuit, shots int }

// warmRoundOf returns one round in a seeded order: the circuit is uniform
// over warmCircuits and 70% of requests ask for smallShots, exactly rather
// than in expectation.
func warmRoundOf(r *rand.Rand) []warmReq {
	out := make([]warmReq, 0, warmRound)
	for ci := range warmCircuits {
		for i := 0; i < smallPerRound+largePerRound; i++ {
			shots := smallShots
			if i >= smallPerRound {
				shots = largeShots
			}
			out = append(out, warmReq{ci, shots})
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// client is one closed loop over its own seeded request sequence. Client
// c's op k is the same request in every run with the same seed.
func (w *warmSample) client(c int, start time.Time, d time.Duration, traced bool) segment {
	cl := newClient(w.d.Addr())
	defer cl.close()
	path := "/v1/sample"
	if traced {
		path += "?debug=1"
	}
	var seg segment
	var body []byte
	var round []warmReq
	// A client stops only at a round boundary, so every run draws the same
	// mix of circuits and shot counts whatever the seed.
	for seg.attempted == 0 || w.ops[c]%warmRound != 0 || time.Since(start) < d {
		k := w.ops[c]
		w.ops[c]++
		if k%warmRound == 0 {
			round = warmRoundOf(rand.New(rand.NewPCG(w.seed, uint64(c)<<32|uint64(k/warmRound))))
		}
		ci, shots := round[k%warmRound].circuit, round[k%warmRound].shots
		seed := rand.New(rand.NewPCG(w.seed, uint64(c)<<32|uint64(k)|1<<62)).Uint64()
		body = sampleBody(body, w.prefix[ci], shots, seed)

		t0 := time.Now()
		status, resp, err := cl.do("POST", path, body)
		ms := msSince(t0)
		seg.attempted++
		seg.lat = append(seg.lat, ms)
		if err == nil {
			err = checkSample(status, resp, shots, true)
		}
		if err != nil {
			seg.failed++
			fmt.Fprintf(os.Stderr, "warm-sample %s shots=%d: %v\n", warmCircuits[ci], shots, err)
			continue
		}
		seg.shots += int64(shots)
		if k%warmCheckEvery == 0 {
			w.mu.Lock()
			w.kept = append(w.kept, warmKept{circuit: ci, shots: shots, seed: seed, body: bytes.Clone(resp)})
			w.mu.Unlock()
		}
		if traced {
			w.noteTraced(resp, ms, shots)
		}
	}
	return seg
}

// noteTraced folds one traced warm response into the ledger.
func (w *warmSample) noteTraced(resp []byte, ms float64, shots int) {
	phases, size := tracePhases(resp)
	parse, okP := phases["parse"]
	sample, okS := phases["sample"]
	w.mu.Lock()
	defer w.mu.Unlock()
	if !okP || !okS {
		return
	}
	respond := ms*1e6 - parse - sample
	if shots == smallShots {
		w.parseMS = append(w.parseMS, parse/1e6)
		w.sampleMS = append(w.sampleMS, sample/1e6)
		w.respMS = append(w.respMS, respond/1e6)
		return
	}
	w.lgOK = true
	w.lgShots += float64(shots)
	w.lgSampleNS += sample
	w.lgRsp += respond
	w.lgBytes += float64(size)
}

// verify compares the kept responses with the library facade run with the
// same seed: bit-identical counts or the op fails.
func (w *warmSample) verify() int {
	failed := 0
	refs := references{}
	for _, k := range w.kept {
		st, err := refs.state(warmCircuits[k.circuit])
		var smp *weaksim.Sampler
		if err == nil {
			smp, err = st.Sampler(weaksim.WithSeed(k.seed))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "warm-sample reference %s: %v\n", warmCircuits[k.circuit], err)
			failed++
			continue
		}
		var got struct {
			Counts map[string]int `json:"counts"`
		}
		if err := json.Unmarshal(k.body, &got); err != nil || !maps.Equal(got.Counts, smp.Counts(k.shots)) {
			fmt.Fprintf(os.Stderr, "warm-sample %s seed=%d shots=%d: counts differ from the facade\n",
				warmCircuits[k.circuit], k.seed, k.shots)
			failed++
		}
	}
	fmt.Printf("  warm-sample facade checks=%d failed=%d\n", len(w.kept), failed)
	return failed
}

func (w *warmSample) close() {
	if w.d != nil {
		shutdown(w.d)
		w.d = nil
	}
	_ = os.RemoveAll(w.dir)
}

func (w *warmSample) ledger() []metric {
	out := []metric{{name: "serve.cold.wall_ms", unit: "ms", value: w.coldWallMS}}
	attributed := 0.0
	coldOK := true
	for _, p := range coldPhases {
		out = append(out, metric{name: "serve.cold." + p + "_ms", unit: "ms", value: w.coldMS[p], absent: w.coldAbsent[p]})
		attributed += w.coldMS[p]
		coldOK = coldOK && !w.coldAbsent[p]
	}
	out = append(out,
		metric{name: "serve.cold.unattributed_ms", unit: "ms", value: w.coldWallMS - attributed, absent: !coldOK},
		metric{name: "snapstore.restart_ms", unit: "ms", value: w.restartMS},
		metric{name: "snapstore.bytes", unit: "B", value: float64(w.snapBytes)},
		metric{name: "serve.warm.parse_ms", unit: "ms", value: median(w.parseMS), absent: len(w.parseMS) == 0},
		metric{name: "serve.warm.sample_ms", unit: "ms", value: median(w.sampleMS), absent: len(w.sampleMS) == 0},
		metric{name: "serve.warm.respond_ms", unit: "ms", value: median(w.respMS), absent: len(w.respMS) == 0},
		metric{name: "serve.warm.sample_ns_per_shot", unit: "ns", value: w.lgSampleNS / w.lgShots, absent: !w.lgOK},
		metric{name: "serve.warm.respond_ns_per_shot", unit: "ns", value: w.lgRsp / w.lgShots, absent: !w.lgOK},
		metric{name: "serve.response_bytes_per_shot", unit: "B", value: w.lgBytes / w.lgShots, absent: !w.lgOK},
		metric{name: "serve.cache_hit_ratio", unit: "ratio", value: w.hits / w.lookups, absent: !w.regOK || w.lookups == 0},
		metric{name: "serve.sims_total", unit: "count", value: w.sims, absent: !w.regOK},
	)
	return out
}
