package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host identifies the machine and source a result was measured on.
// CPUs is the core count the OS reports, never a flag value.
type Host struct {
	CPUs       int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      string `json:"dirty"`
	SourceSHA  string `json:"source_sha256"`
}

// hostRecord describes this process and the source tree under root. The
// git fields read "unknown" outside a git checkout; the source digest
// identifies the tree either way.
func hostRecord(root string) Host {
	h := Host{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Dirty:      "unknown",
		SourceSHA:  sourceDigest(root),
	}
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		h.Revision = strings.TrimSpace(out)
		if st, err := gitOutput(root, "status", "--porcelain"); err == nil {
			h.Dirty = strconv.FormatBool(strings.TrimSpace(st) != "")
		}
	}
	return h
}

func gitOutput(root string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	out, err := cmd.Output()
	return string(out), err
}

// sourceDigest hashes every .go file and go.mod of the program (the
// benchmark's own directory and build output excluded), in path order.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTime returns this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostMemory is the host's memory speed as this benchmark measures it
// at start of a traced run: the dependent-load latency and streaming-read
// bandwidth over a buffer the size of the simulator state the traced
// calls touch, and the streaming-read bandwidth of a buffer that fits in
// the first-level cache.
type hostMemory struct {
	StateBytes int
	LatencyNS  float64 // ns per dependent load over StateBytes
	StateGBps  float64 // streaming read over StateBytes
	CacheGBps  float64 // streaming read over 16 KiB
	sink       uint64  // keeps the reads observable
}

// measureHostMemory probes a buffer of stateBytes (at least 64 KiB),
// taking the median of five rounds of each probe.
func measureHostMemory(stateBytes int) hostMemory {
	if stateBytes < 64<<10 {
		stateBytes = 64 << 10
	}
	hm := hostMemory{StateBytes: stateBytes}
	lines := stateBytes / 64
	// One random cycle through every 64-byte line: each load's address
	// comes from the previous load, so the chase pays full latency.
	next := make([]uint64, lines*8)
	perm := rng(0x9E3779B97F4A7C15)
	order := make([]int, lines)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(perm.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	for i := range order {
		next[order[i]*8] = uint64(order[(i+1)%len(order)] * 8)
	}
	const smallWords = (16 << 10) / 8
	var lat, state, small []float64
	for round := 0; round < 5; round++ {
		const steps = 1 << 20
		p := uint64(0)
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			p = next[p]
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/steps)
		hm.sink += p

		reps := 1 + (64<<20)/stateBytes
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			hm.sink += sumWords(next)
		}
		state = append(state, float64(stateBytes*reps)/float64(time.Since(t0).Nanoseconds()))

		const smallReps = 4000
		t0 = time.Now()
		for r := 0; r < smallReps; r++ {
			hm.sink += sumWords(next[:smallWords])
		}
		small = append(small, float64(smallWords*8*smallReps)/float64(time.Since(t0).Nanoseconds()))
	}
	hm.LatencyNS, hm.StateGBps, hm.CacheGBps = median(lat), median(state), median(small)
	return hm
}

// sumWords reads every word of buf with four independent accumulators.
func sumWords(buf []uint64) uint64 {
	var a, b, c, d uint64
	for i := 0; i+3 < len(buf); i += 4 {
		a += buf[i]
		b += buf[i+1]
		c += buf[i+2]
		d += buf[i+3]
	}
	return a + b + c + d
}

// rng is a splitmix64 stream: the benchmark's only source of
// randomness, so its inputs depend on nothing but the seed.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
