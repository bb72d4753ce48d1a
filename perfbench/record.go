package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runRecord is everything needed to compare one run with another: the
// code, the host, the settings and the failure accounting.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	// Commit is the checkout's git HEAD when there is one; SourceSHA256
	// digests the Go sources and go.mod files either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	// GOMAXPROCS of the server process (set through its environment)
	// and of this load generator.
	ServerGOMAXPROCS    int `json:"server_gomaxprocs"`
	GeneratorGOMAXPROCS int `json:"generator_gomaxprocs"`
	GeneratorGOGC       int `json:"generator_gogc"`

	Sites    int     `json:"sites"`
	Resident int     `json:"resident"`
	Monitor  bool    `json:"monitor"`
	Batch    int     `json:"batch"`
	OpenRate float64 `json:"open_loop_rate_per_s"`
	// ReferenceCapacity is the closed-loop capacity OpenRate was derived
	// from (openLoad of it).
	ReferenceCapacity float64 `json:"reference_capacity_per_s"`
	// OpenLoopLoad is OpenRate over the capacity this run's closed loop
	// measured (locate_qps).
	OpenLoopLoad float64 `json:"open_loop_load"`
	OpenConns    int     `json:"open_loop_connections"`
	ClosedConns  int     `json:"closed_loop_connections"`
	UpdateConns  int     `json:"update_connections"`
	Updates      int     `json:"updates"`
	Concurrent   bool    `json:"updates_concurrent_with_locate"`

	// ServedRehydrationsPerKQ is the server's own rehydration count
	// (iupdater_site_rehydrations_total) over the /locate phases, per
	// 1000 /locate requests sent in them.
	ServedRehydrationsPerKQ float64 `json:"served_rehydrations_per_kq"`

	// StealShare is the share of CPU time the hypervisor took from this
	// machine while the run measured (from /proc/stat; 0 on bare metal).
	StealShare float64 `json:"steal_share"`

	SetupSeconds []float64 `json:"setup_seconds"`
	// LocateQPSWindows is the closed loop's throughput in each round;
	// locate_qps is their median.
	LocateQPSWindows []float64           `json:"closed_loop_qps_windows"`
	Tails            map[string]tailStat `json:"tails"`
	// OpenLoopP50Ms is the open loop's median latency from due time.
	OpenLoopP50Ms float64 `json:"open_loop_p50_ms"`
	// ReplicaLagP50Ms and ReplicaLagMaxMs are the median and slowest
	// follower catch-up after an update's acknowledgement.
	ReplicaLagP50Ms float64      `json:"replica_lag_p50_ms"`
	ReplicaLagMaxMs float64      `json:"replica_lag_max_ms"`
	Phases          []phaseCount `json:"phases"`
	// FailedRatio is failed over attempted requests, every phase.
	FailedRatio float64 `json:"failed_ratio"`
	// Checked counts gate comparisons; Mismatches lists the first few
	// failures. Crashed holds the server log tail if it died mid-run.
	Checked    int      `json:"checked"`
	Mismatches []string `json:"mismatches,omitempty"`
	Crashed    string   `json:"crashed,omitempty"`
	// Missing names the metrics (or traced layers) that had no samples.
	Missing []string `json:"missing,omitempty"`
}

func newRunRecord(w workload, o options, procs int) *runRecord {
	return &runRecord{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Commit: gitHead(), SourceSHA256: sourceDigest(), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), NProc: runtime.NumCPU(),
		ServerGOMAXPROCS: procs, GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0), GeneratorGOGC: generatorGOGC,
		Sites: w.sites, Resident: w.resident, Monitor: w.monitor, Batch: w.batch,
		OpenRate: w.rate(), ReferenceCapacity: w.capacity, OpenConns: w.openConns, ClosedConns: closedConns, UpdateConns: 1, Updates: updates,
		Concurrent: w.concurrentUpdates,
	}
}

// gitHead resolves .git/HEAD without running git; "unknown" outside a
// git checkout.
func gitHead() string {
	b, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under the working
// directory (hidden directories skipped), in path order.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes reads the aggregate jiffies line of /proc/stat.
func cpuTimes() []float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]float64, len(fields)-1)
	for i, s := range fields[1:] {
		out[i], _ = strconv.ParseFloat(s, 64)
	}
	return out
}

// stealShare is the steal share of the CPU time between two cpuTimes
// readings.
func stealShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) != len(a) {
		return 0
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return (b[7] - a[7]) / total
}
