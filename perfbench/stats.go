package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// median of xs (mean of the two middle values for even lengths); xs is
// sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailRank is the 1-based nearest rank of the highest percentile that has
// at least ten samples beyond it. Small samples never go below the median.
func tailRank(n int) int {
	r := n - 10
	if half := n/2 + 1; r < half {
		r = half
	}
	if r < 1 {
		r = 1
	}
	return r
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	kb, _ := procField("/proc/self/status", "VmHWM:")
	return float64(kb) / 1024
}

// diskWriteBytes is the bytes this process has caused to be sent to the
// storage layer (/proc/self/io write_bytes).
func diskWriteBytes() int64 {
	v, _ := procField("/proc/self/io", "write_bytes:")
	return v
}

// procField reads the first integer after key in a /proc text file.
func procField(path, key string) (int64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseInt(f[0], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// cpuTimes returns the steal and total jiffies of the aggregate /proc/stat
// cpu line.
func cpuTimes() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted in user.
	for i, s := range fields[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// startSteal returns a function reporting the host's steal share in percent
// since the call.
func startSteal() func() float64 {
	s0, t0 := cpuTimes()
	return func() float64 {
		s1, t1 := cpuTimes()
		if t1 <= t0 {
			return 0
		}
		return 100 * float64(s1-s0) / float64(t1-t0)
	}
}

type hostStamp struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
	commit     string
	source     string
}

// stamp identifies the host and the code under test. Numbers are only
// comparable between runs with the same cpu, nproc and gomaxprocs.
func stamp() hostStamp {
	st := hostStamp{
		cpu:        "unknown",
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     "unknown",
		source:     sourceDigest("."),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				st.commit += "+dirty"
			}
		}
	}
	return st
}

// sourceDigest hashes the Go sources and go.mod of the module under test
// (everything below root except the benchmark and build output), so runs
// from a checkout without version control still name the code they timed.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// countsSum adds up the values of the first "counts" object in a JSON body
// without decoding it, so checking a multi-megabyte response stays cheap.
// end is the offset just past the object.
func countsSum(body []byte) (sum int64, end int, ok bool) {
	const key = `"counts":{`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, 0, false
	}
	i += len(key)
	for i < len(body) {
		if body[i] == '}' {
			return sum, i + 1, true
		}
		if body[i] != '"' {
			return 0, 0, false
		}
		j := bytes.IndexByte(body[i+1:], '"')
		if j < 0 {
			return 0, 0, false
		}
		i += j + 2
		if i >= len(body) || body[i] != ':' {
			return 0, 0, false
		}
		i++
		start := i
		var n int64
		for i < len(body) && body[i] >= '0' && body[i] <= '9' {
			n = n*10 + int64(body[i]-'0')
			i++
		}
		if i == start {
			return 0, 0, false
		}
		sum += n
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return 0, 0, false
}
