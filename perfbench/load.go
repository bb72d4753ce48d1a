package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"iupdater"
)

// conn is one load-generator connection: a client whose transport
// keeps exactly one keep-alive connection to the server.
type conn struct{ c *http.Client }

func newConn() *conn {
	return &conn{c: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and returns the body of a 200 response; a
// transport error, an EOF or any other status is an error.
func (c *conn) do(method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// phaseCount is the failure accounting of one phase.
type phaseCount struct {
	Name      string `json:"name"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	// FirstError is the first failure's message, if any.
	FirstError string `json:"first_error,omitempty"`
}

func (p *phaseCount) add(o phaseCount) {
	p.Sent += o.Sent
	p.Succeeded += o.Succeeded
	p.Failed += o.Failed
	if p.FirstError == "" {
		p.FirstError = o.FirstError
	}
}

func (p *phaseCount) note(err error) {
	p.Sent++
	if err == nil {
		p.Succeeded++
		return
	}
	p.Failed++
	if p.FirstError == "" {
		p.FirstError = err.Error()
	}
}

// served is one answered /locate: the query and what the server said.
type served struct {
	q       *query
	version uint64
	pos     [][2]float64
}

type locateResponse struct {
	Version  uint64 `json:"version"`
	Position *struct {
		X, Y float64
	} `json:"position"`
	Positions []struct {
		X, Y float64
	} `json:"positions"`
}

func parseLocate(b []byte, q *query, batch bool) (served, error) {
	var r locateResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return served{}, fmt.Errorf("decoding /locate response: %w", err)
	}
	s := served{q: q, version: r.Version}
	if !batch {
		if r.Position == nil {
			return served{}, fmt.Errorf("/locate answered without a position")
		}
		s.pos = [][2]float64{{r.Position.X, r.Position.Y}}
	} else {
		if len(r.Positions) != len(q.rss) {
			return served{}, fmt.Errorf("/locate answered %d positions for %d measurements", len(r.Positions), len(q.rss))
		}
		s.pos = make([][2]float64, len(r.Positions))
		for i, p := range r.Positions {
			s.pos[i] = [2]float64{p.X, p.Y}
		}
	}
	return s, nil
}

// loadGen drives /locate traffic for one workload run.
type loadGen struct {
	w     workload
	in    *inputs
	urls  []string // per-site /locate URL
	conns []*conn
	// epoch is site 0's update count as acknowledged to the writer:
	// /locate measurements are taken at that clock.
	epoch atomic.Int32
	// next numbers /locate requests across phases and workers, so the
	// Zipf site sequence and the pools are walked in one order.
	next  atomic.Int64
	spans *spanLog
}

func newLoadGen(w workload, in *inputs, base string, spans *spanLog) *loadGen {
	g := &loadGen{w: w, in: in, spans: spans}
	for s := 0; s < w.sites; s++ {
		g.urls = append(g.urls, fmt.Sprintf("%s/sites/%s/locate", base, siteName(s)))
	}
	for i := 0; i < max(w.openConns, closedConns); i++ {
		g.conns = append(g.conns, newConn())
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.conns {
		c.close()
	}
}

// locateOnce sends the i-th query and parses the answer.
func (g *loadGen) locateOnce(c *conn, i int64) (served, error) {
	q := g.in.pick(int(i), int(g.epoch.Load()))
	b, err := c.do("POST", g.urls[q.site], q.body)
	if err != nil {
		return served{}, err
	}
	return parseLocate(b, q, g.w.batch > 0)
}

// phaseResult is what one /locate phase measured.
type phaseResult struct {
	count   phaseCount
	latency []float64 // ms: open loop from due time, closed loop from send
	late    []float64 // ms: open loop only, send time minus due time
	served  []served
	// answered counts the closed loop's answers within the phase.
	answered int
	// tracedLatency is the closed-loop latency of the requests sent with
	// client spans on (trace runs alternate windows on and off).
	tracedLatency []float64
}

func (p *phaseResult) merge(o phaseResult) {
	p.count.add(o.count)
	p.latency = append(p.latency, o.latency...)
	p.late = append(p.late, o.late...)
	p.served = append(p.served, o.served...)
	p.tracedLatency = append(p.tracedLatency, o.tracedLatency...)
	p.answered += o.answered
}

// openLoop sends /locate at a fixed rate for d: request i is due at
// start + i/rate whatever happened to earlier ones, and its latency is
// measured from that due time, so a stall also charges the requests
// queued behind it. Requests are spread over the connections; a due
// request waits for a free connection.
func (g *loadGen) openLoop(name string, d time.Duration) phaseResult {
	period := time.Duration(float64(time.Second) / g.w.rate())
	n := int64(d / period)
	start := time.Now().Add(time.Millisecond)
	var claimed atomic.Int64
	conns := g.conns[:g.w.openConns]
	results := make([]phaseResult, len(conns))
	var wg sync.WaitGroup
	for wi, c := range conns {
		wg.Add(1)
		go func(r *phaseResult, c *conn) {
			defer wg.Done()
			preciseSleeper()
			for {
				k := claimed.Add(1) - 1
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * period)
				sleepUntil(due)
				sent := time.Now()
				s, err := g.locateOnce(c, g.next.Add(1)-1)
				done := time.Now()
				g.spans.record(uint64(k), 0, "serve.locate", sent, done)
				r.count.note(err)
				if err != nil {
					continue
				}
				r.latency = append(r.latency, ms(done.Sub(due)))
				r.late = append(r.late, ms(sent.Sub(due)))
				r.served = append(r.served, s)
			}
		}(&results[wi], c)
	}
	wg.Wait()
	out := phaseResult{count: phaseCount{Name: name}}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// closedLoop keeps one request in flight on each of the closedConns
// connections for d. With
// traceWindows set (and spans on), client spans are recorded only in
// every other tenth of the phase, so traced and untraced latency are
// measured under the same conditions.
func (g *loadGen) closedLoop(name string, d time.Duration, traceWindows bool) phaseResult {
	start := time.Now()
	end := start.Add(d)
	conns := g.conns[:closedConns]
	results := make([]phaseResult, len(conns))
	var wg sync.WaitGroup
	for wi, c := range conns {
		wg.Add(1)
		go func(r *phaseResult, c *conn) {
			defer wg.Done()
			for {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				traced := traceWindows && g.spans != nil && int(10*sent.Sub(start)/d)%2 == 1
				i := g.next.Add(1) - 1
				s, err := g.locateOnce(c, i)
				done := time.Now()
				r.count.note(err)
				if err != nil {
					continue
				}
				if done.Before(end) {
					r.answered++
				}
				if traced {
					g.spans.record(uint64(i), 0, "serve.locate", sent, done)
					r.tracedLatency = append(r.tracedLatency, ms(done.Sub(sent)))
				} else {
					r.latency = append(r.latency, ms(done.Sub(sent)))
				}
				r.served = append(r.served, s)
			}
		}(&results[wi], c)
	}
	wg.Wait()
	out := phaseResult{count: phaseCount{Name: name}}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// snapObs is one observation of a site's fingerprints at a version:
// from GET /snapshot ("leader") or from the in-process follower.
type snapObs struct {
	site    int
	version uint64
	source  string
	fp      iupdater.Matrix
	// clock is the site's simulated clock when a leader observation
	// was taken right after an update (0 otherwise).
	clock time.Duration
}

type snapshotResponse struct {
	Version      uint64      `json:"version"`
	Fingerprints [][]float64 `json:"fingerprints"`
}

func getSnapshot(c *conn, base string, site int) (snapObs, error) {
	b, err := c.do("GET", fmt.Sprintf("%s/sites/%s/snapshot", base, siteName(site)), nil)
	if err != nil {
		return snapObs{}, err
	}
	var r snapshotResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return snapObs{}, fmt.Errorf("decoding /snapshot: %w", err)
	}
	fp, err := iupdater.MatrixFromRows(r.Fingerprints)
	if err != nil {
		return snapObs{}, fmt.Errorf("/snapshot fingerprints: %w", err)
	}
	return snapObs{site: site, version: r.Version, source: "leader", fp: fp}, nil
}

// writeResult is what the update writer measured.
type writeResult struct {
	count     phaseCount
	latency   []float64 // ms, POST /update send to acknowledgement
	lag       []float64 // ms, acknowledgement to follower has applied
	visible   []float64 // ms, POST /update send to follower has applied
	obs       []snapObs
	bytesFrom int64 // data-dir bytes before the first update
	bytesTo   int64
	versions  uint64 // site 0 versions published across the writes
	// clock is site 0's simulated clock after the acknowledged updates,
	// advanced exactly as the server advances it.
	clock time.Duration
	// updated holds the leader snapshot fetched after each update.
	updated []snapObs
}

// writer posts the seeded update schedule to site 0, a slice of it at
// a time, on its own connection.
type writer struct {
	srv      *server
	in       *inputs
	follower *iupdater.Replica
	g        *loadGen
	c        *conn
	url      string
	first    uint64 // site 0's version before the first update
	last     uint64 // the last acknowledged version
	res      writeResult
}

// newWriter records the data dir's size and site 0's snapshot before
// the first update.
func newWriter(srv *server, in *inputs, follower *iupdater.Replica, g *loadGen) (*writer, error) {
	wr := &writer{srv: srv, in: in, follower: follower, g: g, c: newConn(),
		url: srv.base + "/sites/" + siteName(0) + "/update"}
	wr.res.count.Name = "update"
	var err error
	if wr.res.bytesFrom, err = dirBytes(srv.dataDir); err != nil {
		wr.c.close()
		return nil, err
	}
	before, err := getSnapshot(wr.c, srv.base, 0)
	wr.res.count.note(err)
	if err != nil {
		wr.c.close()
		return nil, err
	}
	wr.res.obs = append(wr.res.obs, before)
	wr.first, wr.last = before.version, before.version
	return wr, nil
}

// post sends updates lo..hi-1 of the schedule. With every > 0 update
// lo+k is sent at the call's start + k*every; otherwise back to back.
// After each acknowledgement it times the follower's catch-up and
// fetches the leader snapshot at that version.
func (wr *writer) post(ctx context.Context, lo, hi int, every time.Duration) error {
	preciseSleeper()
	defer runtime.UnlockOSThread()
	res := &wr.res
	start := time.Now()
	for k := lo; k < hi; k++ {
		if every > 0 {
			sleepUntil(start.Add(time.Duration(k-lo) * every))
		}
		days := wr.in.days[k]
		body, err := json.Marshal(map[string]float64{"days": days})
		if err != nil {
			return err
		}
		sent := time.Now()
		b, err := wr.c.do("POST", wr.url, body)
		ack := time.Now()
		res.count.note(err)
		if err != nil {
			continue
		}
		wr.g.epoch.Store(int32(k + 1))
		res.clock += daysToDuration(days)
		var ur struct {
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(b, &ur); err != nil {
			return fmt.Errorf("decoding /update response: %w", err)
		}
		wr.last = ur.Version
		res.latency = append(res.latency, ms(ack.Sub(sent)))
		wr.g.spans.record(uint64(k), 0, "serve.update", sent, ack)
		snap, caught, err := catchUp(ctx, wr.follower, ur.Version)
		if err != nil {
			return fmt.Errorf("follower: %w", err)
		}
		res.lag = append(res.lag, ms(caught.Sub(ack)))
		res.visible = append(res.visible, ms(caught.Sub(sent)))
		wr.g.spans.record(uint64(k), 0, "replica.wait", ack, caught)
		res.obs = append(res.obs, snapObs{site: 0, version: snap.Version(), source: "follower", fp: snap.Fingerprints()})
		o, err := getSnapshot(wr.c, wr.srv.base, 0)
		res.count.note(err)
		if err == nil {
			o.clock = res.clock
			res.obs = append(res.obs, o)
			res.updated = append(res.updated, o)
		}
	}
	return nil
}

// finish records the data dir's growth and the versions published.
func (wr *writer) finish() (writeResult, error) {
	defer wr.c.close()
	var err error
	if wr.res.bytesTo, err = dirBytes(wr.srv.dataDir); err != nil {
		return wr.res, err
	}
	wr.res.versions = wr.last - wr.first
	return wr.res, nil
}

// preciseSleeper pins the calling goroutine to its OS thread and sets
// that thread's timer slack to 1µs, so sleepUntil wakes within tens of
// microseconds. (time.Sleep rounds sub-millisecond waits up to the
// runtime's 1 ms poller granularity, which would swamp a ~0.1 ms
// request.) The thread stays locked until the goroutine exits or
// calls runtime.UnlockOSThread.
func preciseSleeper() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}

// sleepUntil blocks the thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// catchUp waits until the follower has applied version v and returns
// its snapshot and the moment it was first seen. For up to 5 ms it
// checks the follower's snapshot pointer every 20 µs, sleeping in
// nanosleep between checks: Replica.WaitVersion polls on a 2 ms ticker
// and would round a sub-millisecond lag up to that tick, and a
// Gosched spin would keep this P from polling the network, delaying
// the follower's own read. Call it from a preciseSleeper goroutine. A
// longer lag falls back to WaitVersion.
func catchUp(ctx context.Context, follower *iupdater.Replica, v uint64) (*iupdater.Snapshot, time.Time, error) {
	spinUntil := time.Now().Add(5 * time.Millisecond)
	for now := time.Now(); now.Before(spinUntil); now = time.Now() {
		if s := follower.Snapshot(); s != nil && s.Version() >= v {
			return s, now, nil
		}
		sleepUntil(now.Add(20 * time.Microsecond))
	}
	// A follower long-poll can outlive its leader instance: a fleet
	// site parked and rehydrated mid-poll publishes on a new
	// Deployment, which the pending poll never hears of, so the
	// follower catches up only when its wait (followerWait) expires.
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	s, err := follower.WaitVersion(wctx, v)
	return s, time.Now(), err
}

// followerWait is the follower's long-poll wait. It bounds how long a
// poll left on a parked fleet site's old Deployment goes unanswered;
// the 25 s default would stall every round's first update on
// fleet-cold, where site 0 is parked and rehydrated between rounds.
const followerWait = 500 * time.Millisecond

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
