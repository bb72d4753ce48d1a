package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one `iupdater serve` child process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	logPath string
	// exited is closed once the process has been reaped; stopping is
	// set before a deliberate stop, so an exit without it is a crash.
	exited   chan struct{}
	waitErr  error
	stopping atomic.Bool
}

// serverArgs builds the serve command line for the workload.
func serverArgs(w workload, seed uint64, addr, dataDir string) []string {
	specs := make([]string, w.sites)
	for i := range specs {
		specs[i] = siteName(i) + "=" + w.env
	}
	args := []string{"serve", "-addr", addr, "-seed", strconv.FormatUint(seed, 10),
		"-sites", strings.Join(specs, ","), "-data-dir", dataDir}
	if w.monitor {
		args = append(args, "-monitor")
	}
	if w.resident > 0 {
		args = append(args, "-resident", strconv.Itoa(w.resident))
	}
	return args
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer spawns the server on a fresh data directory and returns
// once it is ready: /healthz answers and every site serves version ≥1.
// The returned duration is the spawn-to-ready time.
func startServer(ctx context.Context, bin string, w workload, seed uint64, dataDir, logPath string, procs int) (*server, time.Duration, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, serverArgs(w, seed, addr, dataDir)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, dataDir: dataDir, logPath: logPath, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := start.Add(60 * time.Second)
	for {
		if s.ready(client, w.sites) {
			return s, time.Since(start), nil
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("server exited during start-up (%v); log: %s", s.waitErr, logTail(logPath))
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after 60s; log: %s", logTail(logPath))
		}
	}
}

// ready reports whether /healthz answers and GET /sites lists every
// site at version ≥1 (parked sites included: /sites does not rehydrate).
func (s *server) ready(c *http.Client, sites int) bool {
	resp, err := c.Get(s.base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	resp, err = c.Get(s.base + "/sites")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var body struct {
		Sites []struct {
			Version uint64 `json:"version"`
		} `json:"sites"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil || len(body.Sites) != sites {
		return false
	}
	for _, st := range body.Sites {
		if st.Version < 1 {
			return false
		}
	}
	return true
}

// crashed reports whether the process exited without being stopped.
func (s *server) crashed() bool {
	select {
	case <-s.exited:
		return !s.stopping.Load()
	default:
		return false
	}
}

// peakRSSMB reads the process's VmHWM from /proc, in MB (10^6 bytes).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			// /proc reports kB meaning KiB.
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kib * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// rehydrations reads the server's fleet-wide count of parked sites
// rehydrated on demand from GET /metrics.
func rehydrations(c *conn, base string) (float64, error) {
	b, err := c.do("GET", base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "iupdater_site_rehydrations_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("GET /metrics has no iupdater_site_rehydrations_total sample")
}

// stop sends SIGTERM (graceful drain), escalates to SIGKILL after 20s,
// and waits for the process to be reaped.
func (s *server) stop() {
	s.stopping.Store(true)
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// logTail returns the last lines of a log file for error messages.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}
