package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"iupdater"
)

// workload is one traffic mix against a served fleet of testbed sites.
type workload struct {
	name string
	env  string // testbed environment of every site: office or hall
	// sites served; site i is named "sNN" and surveyed with seed+i.
	sites int
	// resident is the server's -resident cap (0 = every site resident).
	resident int
	monitor  bool
	// batch is the number of measurements per /locate request; 0 sends
	// one single-RSS measurement per request.
	batch int
	// capacity is the closed-loop /locate throughput (requests/s on
	// closedConns connections) measured on the reference host, rounded
	// from the median of the tuning seeds. It only sets the open loop's
	// rate, which stays fixed when the server gets faster or slower.
	capacity float64
	// openConns is the number of open-loop /locate connections; each
	// carries openLoad of a closed-loop connection's share of capacity.
	openConns int
	// concurrentUpdates runs each round's POST /update share during
	// its open-loop /locate slice, on its own connection; otherwise the
	// share runs back to back after the round's /locate slices, with
	// no /locate traffic.
	concurrentUpdates bool
	// zipf picks the site of every /locate by a seeded Zipf law over
	// the sites (site 0 hottest); otherwise every /locate goes to site 0.
	zipf bool
}

// updates is the number of POST /update requests of every run; their
// p90 keeps 30 samples beyond it.
const updates = 300

// studyDays is the span of the paper's three-month study (its last
// survey is at 90 days). The update schedule covers it: each update
// advances the simulated clock by a seeded number of days drawn
// uniformly from [minDays, maxDays), whose mean is studyDays/updates.
const (
	studyDays = 90.0
	minDays   = 0.5 * studyDays / updates
	maxDays   = 1.5 * studyDays / updates
)

// closedConns is the number of closed-loop /locate connections, one
// request in flight on each: as many as the reference host has vCPUs,
// so the server and the generator keep both busy. locate_p50_ms and
// locate_qps come from this phase. (On an idle vCPU every request
// first pays the hypervisor's wake-up, which varies with the load of
// the host's other tenants: in the same runs of five or six seeds the
// open loop's p50 spread 0.16–0.49, the closed loop's 0.06–0.09.)
const closedConns = 2

// openLoad is the load each open-loop connection offers, as a share of
// one closed-loop connection's throughput. At a tenth a request rarely
// queues behind another, so the open loop (record only, and the
// backdrop of durable-update's writes) sees the service time rather
// than a queue. Each run records the share against the capacity it
// measured itself (open_loop_load).
const openLoad = 0.1

// The Zipf law that picks a fleet-cold site: P(site k) ∝ (zipfV+k)^-zipfS.
// It is chosen so that two thirds of the /locate requests rehydrate a
// parked site: a 4-site LRU (the server's -resident cap) over this law
// misses 67% of the picks. Each run records the server's own count as
// served_rehydrations_per_kq. With two thirds of the requests paying
// park → store.At → rehydrate, a change in the rehydration cost moves
// fleet-cold's locate_p50_ms by at least two thirds of that change, as
// well as its locate_qps, and with the share that far above one half
// the median does not flip between hot and cold requests from seed to
// seed. (zipfV = 1 would put the share at 45%, right at the flip.) The
// 4 hottest sites still draw 49% of the picks, against 25% under a
// uniform law.
const (
	zipfS = 1.2
	zipfV = 4
)

// distinct is the number of distinct measurements generated per run
// and site (spread over the clock epochs of a concurrently updated
// site); the load cycles through them. Enough distinct target
// positions keep locate_error_m from depending on a few of them.
const distinct = 16384

// workloads are the traffic mixes; BENCHMARK.json at the repository
// root records why each was chosen.
var workloads = []workload{
	{
		name: "office-locate",
		env:  "office", sites: 1, monitor: true, capacity: 13000, openConns: 2,
	},
	{
		name: "hall-batch",
		env:  "hall", sites: 1, monitor: true, batch: 64, capacity: 2000, openConns: 2,
	},
	{
		name: "durable-update",
		env:  "office", sites: 1, capacity: 12400, openConns: 1, concurrentUpdates: true,
	},
	{
		name: "fleet-cold",
		env:  "office", sites: 16, resident: 4, capacity: 9000, openConns: 2, zipf: true,
	},
}

// rate is the open-loop /locate arrival rate, requests per second.
func (w workload) rate() float64 {
	return openLoad * w.capacity * float64(w.openConns) / closedConns
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) environment() iupdater.Environment {
	if w.env == "hall" {
		return iupdater.Hall()
	}
	return iupdater.Office()
}

func siteName(i int) string { return fmt.Sprintf("s%02d", i) }

// query is one generated /locate request: the true target positions
// (one per measurement), the measurements, and the encoded body.
type query struct {
	site  int
	truth [][2]float64
	rss   [][]float64
	body  []byte
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	// pools[site][epoch] holds the queries measured at that
	// site's clock after epoch updates (only site 0 is updated); it is
	// nil for an epoch at which no /locate is sent.
	pools [][][]query
	// days[k] is the clock advance of update k+1.
	days []float64
	// clocks[k] is site 0's clock after k updates.
	clocks []time.Duration
	// siteSeq is the site of every generated /locate, in send order
	// (all zero unless the workload is zipf).
	siteSeq []int
}

func genInputs(w workload, seed uint64) (*inputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	in := &inputs{days: make([]float64, updates), clocks: make([]time.Duration, updates+1)}
	for k := range in.days {
		in.days[k] = minDays + (maxDays-minDays)*rng.Float64()
		in.clocks[k+1] = in.clocks[k] + daysToDuration(in.days[k])
	}
	env := w.environment()
	geo := env.Geometry()
	in.pools = make([][][]query, w.sites)
	for s := 0; s < w.sites; s++ {
		// The measuring testbed is separate from the server's: only
		// the seed, not the server's measurement history, decides the
		// noise on these readings.
		tb := iupdater.NewTestbed(env, seed+uint64(s))
		epochs := []int{0}
		if s == 0 {
			epochs = w.readEpochs()
		}
		in.pools[s] = make([][]query, epochs[len(epochs)-1]+1)
		per := max(distinct/(w.sites*max(w.batch, 1)*len(epochs)), 16)
		for _, e := range epochs {
			pool := make([]query, per)
			for i := range pool {
				n := max(w.batch, 1)
				q := query{site: s, truth: make([][2]float64, n), rss: make([][]float64, n)}
				for j := 0; j < n; j++ {
					x, y := rng.Float64()*geo.WidthM, rng.Float64()*geo.HeightM
					q.truth[j] = [2]float64{x, y}
					q.rss[j] = tb.MeasureOnline(x, y, in.clocks[e])
				}
				var err error
				if w.batch > 0 {
					q.body, err = json.Marshal(map[string]any{"batch": q.rss})
				} else {
					q.body, err = json.Marshal(map[string]any{"rss": q.rss[0]})
				}
				if err != nil {
					return nil, err
				}
				pool[i] = q
			}
			in.pools[s][e] = pool
		}
	}
	if w.zipf {
		z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d)), zipfS, zipfV, uint64(w.sites-1))
		in.siteSeq = make([]int, 1<<16)
		for i := range in.siteSeq {
			in.siteSeq[i] = int(z.Uint64())
		}
	}
	return in, nil
}

// readEpochs returns the update counts of site 0 at which /locate
// requests are sent: every one when the updates run during the reads,
// otherwise the count at the start of each round.
func (w workload) readEpochs() []int {
	var es []int
	if w.concurrentUpdates {
		for e := 0; e <= updates; e++ {
			es = append(es, e)
		}
		return es
	}
	for r := 0; r < rounds; r++ {
		es = append(es, r*updates/rounds)
	}
	return es
}

// pick returns the i-th /locate query of the run at the given epoch
// (or the latest epoch before it that has a pool).
func (in *inputs) pick(i int, epoch int) *query {
	site := 0
	if in.siteSeq != nil {
		site = in.siteSeq[i%len(in.siteSeq)]
	}
	pools := in.pools[site]
	e := min(epoch, len(pools)-1)
	for pools[e] == nil {
		e--
	}
	pool := pools[e]
	return &pool[i%len(pool)]
}

func daysToDuration(d float64) time.Duration { return time.Duration(d * float64(24*time.Hour)) }
