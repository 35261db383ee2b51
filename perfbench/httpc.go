package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"weaksim"
	"weaksim/internal/circuit/qasm"
)

// requestTimeout fails an op whose response has not fully arrived.
const requestTimeout = 60 * time.Second

// client is one closed-loop caller: one keep-alive connection's worth of
// transport and a reusable response buffer.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		},
	}
}

// do sends one request and reads the whole response. The returned body is
// only valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// requestPrefix renders the start of a /v1/sample or /v1/jobs body for a
// Table I circuit: OpenQASM 2.0 source where the circuit has a QASM form,
// the circuit's name otherwise (Shor's modular multiplications are
// permutations, which QASM 2.0 cannot express). The caller appends the
// remaining fields and the closing brace.
func requestPrefix(name string) ([]byte, error) {
	c, err := weaksim.GenerateBenchmark(name)
	if err != nil {
		return nil, err
	}
	var field []byte
	if src, err := qasm.Write(c); err == nil {
		field, _ = json.Marshal(map[string]string{"qasm": src})
	} else {
		field, _ = json.Marshal(map[string]string{"circuit": name})
	}
	// Reopen the one-field object so more fields can follow.
	return append(field[:len(field)-1], ','), nil
}

// requestPrefixes renders requestPrefix for each name.
func requestPrefixes(names ...string) ([][]byte, error) {
	out := make([][]byte, 0, len(names))
	for _, name := range names {
		p, err := requestPrefix(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// concurrently runs one closed loop per client, each from the same start
// time, and merges their segments; the wall time ends with the last loop.
func concurrently(clients int, loop func(c int, start time.Time) segment) segment {
	segs := make([]segment, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			segs[c] = loop(c, start)
		}(c)
	}
	wg.Wait()
	var seg segment
	for _, s := range segs {
		seg.add(s)
	}
	seg.wall = time.Since(start)
	return seg
}

// references caches one facade State per Table I circuit for the reference
// checks that run after the timed phase.
type references map[string]*weaksim.State

func (r references) state(name string) (*weaksim.State, error) {
	if st, ok := r[name]; ok {
		return st, nil
	}
	c, err := weaksim.GenerateBenchmark(name)
	if err != nil {
		return nil, err
	}
	st, err := weaksim.Simulate(c)
	if err != nil {
		return nil, err
	}
	r[name] = st
	return st, nil
}

// sampleBody appends shots, seed and workers to a request prefix.
func sampleBody(dst, prefix []byte, shots int, seed uint64) []byte {
	dst = append(dst[:0], prefix...)
	return fmt.Appendf(dst, `"shots":%d,"seed":%d,"workers":1}`, shots, seed)
}

// shutdown drains a daemon.
func shutdown(d *weaksim.Daemon) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		_ = d.Close()
	}
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// registry reads metric values by name from the program's registry.
type registry struct{ reg *weaksim.Metrics }

// gauge returns a gauge's value; ok is false when the program does not
// export it.
func (r registry) gauge(name string) (float64, bool) {
	v, ok := r.reg.Snapshot().Gauges[name]
	return float64(v), ok
}

// counters reads several counters at once; missing names are left out.
func (r registry) counters(names ...string) map[string]float64 {
	snap := r.reg.Snapshot()
	out := make(map[string]float64, len(names))
	for _, n := range names {
		if v, ok := snap.Counters[n]; ok {
			out[n] = float64(v)
		}
	}
	return out
}
