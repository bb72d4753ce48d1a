package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// heldOutSeed was never used while the benchmark was tuned (seeds
// 1–46 and 501–505 were).
const heldOutSeed = 4242

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// buildServer builds cmd/iupdater from the repository root.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "iupdater")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/iupdater")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	return bin
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", names, ours)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs); got.Percentile != 99 || got.Beyond != 10 || got.ValueMs != 990 {
		t.Fatalf("tail of 1..1000 = %+v, want p99 with 10 beyond at 990", got)
	}
	if got := tail(xs[:100]); got.Percentile != 90 || got.Beyond != 10 || got.ValueMs != 90 {
		t.Fatalf("tail of 1..100 = %+v, want p90 with 10 beyond at 90", got)
	}
	if got := tail(xs[:50]); got.Percentile != 50 {
		t.Fatalf("tail of 50 samples = %+v, want the median", got)
	}
}

// TestVerdict checks that a failed request or a metric with no samples
// fails the run, and that an empty sample is left out rather than
// reported as 0.
func TestVerdict(t *testing.T) {
	ok := []phaseCount{{Name: "open", Sent: 3, Succeeded: 3}}
	full := func() *metricSet {
		ms := newMetricSet()
		ms.add("locate_p50_ms", "ms", []float64{0.3, 0.1, 0.2}, median)
		return ms
	}
	if res := verdict(&runRecord{Phases: ok}, true, full()); !res.Correct || res.Attempted != 3 {
		t.Fatalf("clean run: %+v, want correct with 3 attempted", res)
	}
	if got := full().m["locate_p50_ms"].Value; got != 0.2 {
		t.Fatalf("median of 0.3, 0.1, 0.2 = %v, want 0.2", got)
	}
	failed := []phaseCount{{Name: "open", Sent: 3, Succeeded: 2, Failed: 1}}
	if res := verdict(&runRecord{Phases: failed}, true, full()); res.Correct || res.Failed != 1 {
		t.Fatalf("run with a failed request: %+v, want incorrect with 1 failed", res)
	}
	if res := verdict(&runRecord{Phases: ok}, false, full()); res.Correct {
		t.Fatalf("run failing the gate: %+v, want incorrect", res)
	}
	empty := newMetricSet()
	empty.add("update_p50_ms", "ms", nil, median)
	rec := &runRecord{Phases: ok}
	res := verdict(rec, true, empty)
	if m, present := res.Metrics["update_p50_ms"]; present || res.Correct {
		t.Fatalf("empty sample: metric %+v (present %v), correct %v; want it left out and the run incorrect", m, present, res.Correct)
	}
	if !slices.Equal(rec.Missing, []string{"update_p50_ms"}) {
		t.Fatalf("record names missing %v, want [update_p50_ms]", rec.Missing)
	}
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	t0 := l.epoch
	root := l.record(1, 0, "root", t0, t0.Add(100))
	l.record(1, root, "child", t0.Add(10), t0.Add(40))
	self := l.selfTimes()
	if got := self["root"][0]; got != 0.07 {
		t.Fatalf("root self time %v µs, want 0.07", got)
	}
	if got := self["child"][0]; got != 0.03 {
		t.Fatalf("child self time %v µs, want 0.03", got)
	}
}

// TestSmokeHeldOutSeed runs every workload briefly on the held-out
// seed: the gate must pass, nothing may fail, every end-to-end metric
// must be present and positive, and the quality metrics must sit in the
// ranges the tuning seeds showed.
func TestSmokeHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the server")
	}
	spec := loadSpec(t)
	bin := buildServer(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: heldOutSeed, seconds: 1, server: bin}
			_, rec, res := smokeRun(t, w, o)
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if e := res.Metrics["locate_error_m"].Value; e > 4.5 {
				t.Errorf("locate_error_m = %.2f m, want under 4.5", e)
			}
			if e := res.Metrics["db_error_db"].Value; e > 2 {
				t.Errorf("db_error_db = %.2f dB, want under 2", e)
			}
			if !(rec.OpenLoopLoad > 0) {
				t.Errorf("open_loop_load = %v, want positive", rec.OpenLoopLoad)
			}
			if w.resident > 0 && !(rec.ServedRehydrationsPerKQ > 0) {
				t.Errorf("served_rehydrations_per_kq = %v, want positive with -resident %d", rec.ServedRehydrationsPerKQ, w.resident)
			}
		})
	}
}

// TestSmokeTraced runs the traced run on one workload and checks that
// every per-layer metric is reported.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the server")
	}
	spec := loadSpec(t)
	w, err := findWorkload("durable-update")
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: w.name, seed: heldOutSeed, seconds: 1, trace: 1, server: buildServer(t)}
	dir, _, res := smokeRun(t, w, o)
	for _, m := range spec.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

func smokeRun(t *testing.T, w workload, o options) (string, *runRecord, result) {
	t.Helper()
	dir := t.TempDir()
	rec, res, err := measure(w, o, dir, min(2, runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d mismatches=%v phases=%+v",
			res.Correct, res.Attempted, res.Failed, rec.Mismatches, rec.Phases)
	}
	return dir, rec, res
}

// TestReadEpochs checks that /locate queries exist at every update
// count they are sent at, and that pick falls back to the latest
// earlier pool.
func TestReadEpochs(t *testing.T) {
	w, err := findWorkload("office-locate")
	if err != nil {
		t.Fatal(err)
	}
	es := w.readEpochs()
	if len(es) != rounds || es[0] != 0 || es[1] != updates/rounds {
		t.Fatalf("office-locate read epochs %v, want the update count at each of %d round starts", es, rounds)
	}
	in, err := genInputs(w, heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		if len(in.pools[0][e]) == 0 {
			t.Fatalf("no queries at epoch %d", e)
		}
	}
	if got, want := in.pick(0, es[1]+1), &in.pools[0][es[1]][0]; got != want {
		t.Fatalf("pick at epoch %d did not fall back to epoch %d's pool", es[1]+1, es[1])
	}
	d, err := findWorkload("durable-update")
	if err != nil {
		t.Fatal(err)
	}
	if es := d.readEpochs(); len(es) != updates+1 {
		t.Fatalf("durable-update reads at %d epochs, want every one of %d", len(es), updates+1)
	}
}
