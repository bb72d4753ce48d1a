// Command perfbench is the repository's served-path benchmark. Each run
// starts the real `iupdater serve` binary as a child process, drives it
// over loopback HTTP with one of four traffic mixes, checks every answer
// against the simulated testbed's ground truth, and prints one JSON
// result line. With -trace 1 it instead times each layer from outside,
// calling the layers' Go functions in process on the same inputs.
//
// Run it from the repository root through perfbench/run.sh, which
// builds both binaries:
//
//	bash perfbench/run.sh --workload office-locate --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"iupdater"
)

// generatorGOGC is the load generator's GC target percentage.
const generatorGOGC = 400

// setupRuns is the number of cold starts a run times for setup_s.
const setupRuns = 9

// rounds is the number of rounds a run's measurement is split into.
// Each round runs an open-loop slice, a closed-loop slice and its
// share of the updates, so every metric samples the host over the
// whole run: on a shared VM the speed the program gets changes from
// one second to the next, and a phase measured in one stretch (the
// updates took about 1.5 s) inherits whatever the host did then.
// locate_qps is the median of the rounds' closed-loop rates.
const rounds = 8

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	server   string
	work     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "traffic mix: office-locate, hall-batch, durable-update or fleet-cold")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the server gets the same -seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	flag.StringVar(&o.server, "server", "", "path of the built `iupdater` binary")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for data dirs, logs, traces and run records")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if _, err := os.Stat(o.server); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	// The generator holds every generated query and every answer in
	// memory; collecting that heap at the default pace puts the
	// generator's own GC into the latencies it measures.
	debug.SetGCPercent(generatorGOGC)
	dir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, o.trace)))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec, res, err := measure(w, o, dir, procs)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "record.json"), b, 0o644); err != nil {
		return err
	}
	fmt.Printf("run record: %s\n", b)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("correctness gate failed")
	}
	return nil
}

// measure performs one run: set-up, the rounds of /locate slices and
// updates, the correctness gate and, for trace runs, the in-process
// ladder.
func measure(w workload, o options, dir string, procs int) (*runRecord, result, error) {
	ctx := context.Background()
	rec := newRunRecord(w, o, procs)
	in, err := genInputs(w, o.seed)
	if err != nil {
		return nil, result{}, err
	}
	dataDir := filepath.Join(dir, "data")
	logPath := filepath.Join(dir, "server.log")

	n := setupRuns
	if o.trace == 1 {
		n = 1 // a traced run reports no set-up time
	}
	srv, setups, err := coldStarts(ctx, w, o, dataDir, logPath, procs, n)
	if err != nil {
		return nil, result{}, err
	}
	defer srv.stop()
	rec.SetupSeconds = setups

	follower, err := iupdater.OpenReplica(srv.base+"/sites/"+siteName(0)+"/records",
		iupdater.WithReplicaWait(followerWait))
	if err != nil {
		return nil, result{}, err
	}
	defer follower.Close()
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	_, err = follower.WaitVersion(wctx, 1)
	cancel()
	if err != nil {
		return nil, result{}, err
	}

	var spans *spanLog
	if o.trace == 1 {
		spans = newSpanLog()
	}
	g := newLoadGen(w, in, srv.base, spans)
	defer g.close()
	T := time.Duration(o.seconds) * time.Second
	openSlice, closedSlice := 2*T/5/rounds, T/2/rounds

	// The server's own rehydration count brackets the rounds.
	scrapes := phaseCount{Name: "metrics"}
	mc := newConn()
	defer mc.close()
	rehydrated0, err := rehydrations(mc, srv.base)
	scrapes.note(err)
	wr, err := newWriter(srv, in, follower, g)
	if err != nil {
		return nil, result{}, err
	}
	cpu0 := cpuTimes()
	warm := g.closedLoop("warmup", 500*time.Millisecond, false)
	open := phaseResult{count: phaseCount{Name: "open"}}
	closed := phaseResult{count: phaseCount{Name: "closed"}}
	for r := 0; r < rounds; r++ {
		lo, hi := r*updates/rounds, (r+1)*updates/rounds
		if w.concurrentUpdates {
			// The round's updates span its open-loop slice only: a
			// closed loop saturates the server, and updates competing
			// with it would measure the CPU left over rather than the
			// update path.
			var werr error
			done := make(chan struct{})
			go func() {
				defer close(done)
				werr = wr.post(ctx, lo, hi, openSlice/time.Duration(hi-lo))
			}()
			open.merge(g.openLoop("open", openSlice))
			<-done
			if werr != nil {
				return nil, result{}, werr
			}
		} else {
			open.merge(g.openLoop("open", openSlice))
		}
		c := g.closedLoop("closed", closedSlice, o.trace == 1)
		rec.LocateQPSWindows = append(rec.LocateQPSWindows, float64(c.answered)/closedSlice.Seconds())
		closed.merge(c)
		if !w.concurrentUpdates {
			if err := wr.post(ctx, lo, hi, 0); err != nil {
				return nil, result{}, err
			}
		}
	}
	writes, err := wr.finish()
	if err != nil {
		return nil, result{}, err
	}
	rehydrated1, err := rehydrations(mc, srv.base)
	scrapes.note(err)
	if sent := warm.count.Sent + open.count.Sent + closed.count.Sent; sent > 0 {
		rec.ServedRehydrationsPerKQ = 1e3 * (rehydrated1 - rehydrated0) / float64(sent)
	}
	rec.StealShare = stealShare(cpu0, cpuTimes())
	samples, err := json.Marshal(map[string][]float64{
		"locate_open_ms": open.latency, "locate_late_ms": open.late,
		"update_ms": writes.latency, "replica_lag_ms": writes.lag, "replica_visible_ms": writes.visible,
	})
	if err != nil {
		return nil, result{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "samples.json"), samples, 0o644); err != nil {
		return nil, result{}, err
	}

	// Final state: every site's served database, and the server's peak
	// memory, before it stops.
	final := phaseCount{Name: "final"}
	c := newConn()
	var finals []snapObs
	for s := 0; s < w.sites; s++ {
		ob, err := getSnapshot(c, srv.base, s)
		final.note(err)
		if err == nil {
			finals = append(finals, ob)
		}
	}
	c.close()
	rss, rssErr := srv.peakRSSMB()
	crashed := srv.crashed()
	follower.Close()
	srv.stop()
	if crashed {
		rec.Crashed = logTail(logPath)
	}
	if rssErr != nil && !crashed {
		return nil, result{}, rssErr
	}

	gt, err := newGate(w, dataDir)
	if err != nil {
		return nil, result{}, err
	}
	gt.observe(writes.obs)
	gt.observe(finals)
	var all []served
	for _, p := range []phaseResult{warm, open, closed} {
		all = append(all, p.served...)
	}
	dists := gt.locates(all)
	rec.Checked, rec.Mismatches = gt.checked, gt.errs

	rec.Phases = []phaseCount{warm.count, open.count, closed.count, writes.count, scrapes, final}
	// The tails and the acknowledgement-relative replica lag are printed
	// in the run record, not gated: on a shared 2-vCPU VM the tails
	// follow the hypervisor's stalls (see steal_share) more than the
	// code, and on loopback the follower usually applies before the
	// client has read the acknowledgement, so the lag's median is tens
	// of microseconds of scheduling noise. Both spread far wider than
	// any bound.
	rec.ReplicaLagP50Ms = median(writes.lag)
	rec.OpenLoopP50Ms = median(open.latency)
	rec.Tails = map[string]tailStat{
		"locate_tail_ms":      tail(open.latency),
		"update_tail_ms":      tail(writes.latency),
		"replica_lag_tail_ms": tail(writes.lag),
		"generator_late_ms":   tail(open.late),
	}
	rec.ReplicaLagMaxMs = quantile(writes.lag, 1)
	if qps := median(rec.LocateQPSWindows); qps > 0 {
		rec.OpenLoopLoad = w.rate() / qps
	}

	if o.trace == 0 {
		ms := newMetricSet()
		ms.add("setup_s", "s", setups, median)
		ms.add("locate_p50_ms", "ms", closed.latency, median)
		ms.add("locate_qps", "1/s", rec.LocateQPSWindows, median)
		ms.add("locate_error_m", "m", dists, mean)
		ms.add("update_p50_ms", "ms", writes.latency, median)
		ms.add("replica_visible_p50_ms", "ms", writes.visible, median)
		ms.add("db_error_db", "dB", dbErrors(w, o.seed, writes.updated), mean)
		var perUpdate, peak []float64
		if writes.versions > 0 {
			perUpdate = []float64{float64(writes.bytesTo-writes.bytesFrom) / float64(writes.versions)}
		}
		if rssErr == nil {
			peak = []float64{rss}
		}
		ms.add("store_bytes_per_update", "B", perUpdate, mean)
		ms.add("peak_rss_mb", "MB", peak, mean)
		return rec, verdict(rec, gt.ok() && !crashed, ms), nil
	}

	l := &ladder{w: w, seed: o.seed, in: in, spans: spans, workDir: dir, budget: T / 4}
	if err := l.run(dataDir); err != nil {
		return nil, result{}, fmt.Errorf("layer ladder: %w", err)
	}
	if err := spans.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, result{}, err
	}
	return rec, verdict(rec, gt.ok() && !crashed, layerMetrics(w, l, rec, open, closed)), nil
}

// metricSet collects a run's metrics. A metric with no samples is left
// out and named in missing, and the run fails the gate: reported as 0,
// a lower-is-better metric would read as a large improvement.
type metricSet struct {
	m       map[string]metric
	missing []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) add(name, unit string, xs []float64, stat func([]float64) float64) {
	if len(xs) == 0 {
		s.missing = append(s.missing, name)
		return
	}
	s.m[name] = metric{stat(xs), unit}
}

// verdict builds the result line. A run is correct only if the gate
// passed, no request of any phase failed, and every metric had samples;
// a failed request never just shortens a sample.
func verdict(rec *runRecord, gateOK bool, ms *metricSet) result {
	res := result{Metrics: ms.m}
	for _, p := range rec.Phases {
		res.Attempted += p.Sent
		res.Failed += p.Failed
	}
	res.Attempted = max(res.Attempted, 1)
	rec.FailedRatio = float64(res.Failed) / float64(res.Attempted)
	rec.Missing = ms.missing
	res.Correct = gateOK && res.Failed == 0 && len(ms.missing) == 0
	return res
}

// coldStarts starts the server n times on a fresh data dir, timing
// each start; the last one keeps serving.
func coldStarts(ctx context.Context, w workload, o options, dataDir, logPath string, procs, n int) (*server, []float64, error) {
	var srv *server
	var setups []float64
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.stop()
		}
		var d time.Duration
		var err error
		if srv, d, err = startServer(ctx, o.server, w, o.seed, dataDir, logPath, procs); err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return srv, setups, nil
}

// layerMetrics derives the per-layer metrics from the traced run's
// spans (medians of each layer's self time), the counts the ladder
// made, and the server's rehydration count. A layer with no spans is
// named in missing.
func layerMetrics(w workload, l *ladder, rec *runRecord, open, closed phaseResult) *metricSet {
	self := l.spans.selfTimes()
	ms := newMetricSet()
	med := func(name string) float64 {
		if len(self[name]) == 0 {
			ms.missing = append(ms.missing, name)
		}
		return median(self[name])
	}
	// The served path below the HTTP layer: the ladder.query root's
	// children (hydrate, locate or batch, and observe where monitored).
	// It is subtracted from the closed loop's untraced p50, the latency
	// locate_p50_ms reports.
	var below []float64
	for _, s := range l.spans.spans {
		if s.Name == "ladder.query" {
			below = append(below, float64(s.End-s.Start)/1e3)
		}
	}
	served := 1e3 * median(closed.latency)
	perMeasurement := float64(max(w.batch, 1))
	// Nothing parks on a workload without a resident cap.
	rehydrateMs := 0.0
	if w.resident > 0 {
		rehydrateMs = med("fleet.rehydrate") / 1e3
	}
	ms.m = map[string]metric{
		"serve.self_us":             {served - median(below), "us"},
		"trace.overhead_us":         {med("trace.locate") - med("deployment.locate"), "us"},
		"fleet.hydrate_hot_us":      {med("fleet.hydrate"), "us"},
		"fleet.rehydrate_ms":        {rehydrateMs, "ms"},
		"fleet.rehydrations_per_kq": {rec.ServedRehydrationsPerKQ, "1/kq"},
		"deployment.locate_us":      {med("deployment.locate"), "us"},
		"deployment.batch_us":       {med("deployment.batch"), "us"},
		"deployment.update_ms":      {med("deployment.update") / 1e3, "ms"},
		"loc.locate_us":             {med("loc.locate"), "us"},
		"loc.column_evals":          {mean(l.columnEvals), "count"},
		"monitor.observe_us":        {med("monitor.observe") / perMeasurement, "us"},
		"core.reconstruct_ms":       {med("core.reconstruct") / 1e3, "ms"},
		"store.append_ms":           {med("store.append") / 1e3, "ms"},
		"store.delta_share":         {l.deltaBytes / l.fullBytes, "ratio"},
		"store.at_ms":               {med("store.at") / 1e3, "ms"},
		"replica.apply_us":          {med("replica.apply"), "us"},
		"loadgen.late_tail_ms":      {tail(open.late).ValueMs, "ms"},
		"loadgen.sent":              {float64(open.count.Sent + closed.count.Sent), "count"},
		"loadgen.failed":            {float64(open.count.Failed + closed.count.Failed), "count"},
		"loadgen.trace_overhead_us": {1e3 * (median(closed.tracedLatency) - median(closed.latency)), "us"},
	}
	return ms
}
