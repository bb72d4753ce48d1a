package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"iupdater"
	"iupdater/internal/core"
	"iupdater/internal/fingerprint"
	"iupdater/internal/geom"
	"iupdater/internal/loc"
	"iupdater/internal/mat"
	"iupdater/internal/store"
	"iupdater/internal/trace"
)

// ladder times each layer from outside: it calls the layer's public Go
// functions in process, on the workload's own generated inputs, with
// every call recorded as a span. Spans of one query share its trace
// ID; the served-path calls (hydrate, locate, observe) are children of
// a "ladder.query" root, the other layers' calls are roots of their own.
type ladder struct {
	w       workload
	seed    uint64
	in      *inputs
	spans   *spanLog
	workDir string
	// budget bounds the locate part of the ladder.
	budget time.Duration

	columnEvals []float64 // per loc.locate call
	// deltaBytes and fullBytes size the store ladder's update records.
	deltaBytes, fullBytes float64
}

// run executes the locate, fleet, update and store ladders. leaderDir
// is the stopped server's data directory.
func (l *ladder) run(leaderDir string) error {
	env := l.w.environment()
	tb := iupdater.NewTestbed(env, l.seed)
	d, _, err := tb.Deploy(0, 50)
	if err != nil {
		return err
	}
	if err := l.locates(d); err != nil {
		return err
	}
	if l.w.resident > 0 {
		if err := l.fleet(env); err != nil {
			return err
		}
	}
	if err := l.updates(d, tb); err != nil {
		return err
	}
	return l.store(filepath.Join(leaderDir, siteName(0)), env.Geometry().Links)
}

// locates runs the locate ladder over site 0's day-0 queries until the
// budget is spent.
func (l *ladder) locates(d *iupdater.Deployment) error {
	fleet := iupdater.NewFleet()
	defer fleet.Close()
	site, err := fleet.AddSite(siteName(0), iupdater.SiteConfig{Deployment: d})
	if err != nil {
		return err
	}
	// A monitor without a sampler detects but never updates, so no
	// background reconstruction competes with the timed calls.
	mon, err := iupdater.NewMonitor(d, nil)
	if err != nil {
		return err
	}
	defer mon.Close()
	// An attached tracer that samples nothing: head sampling off and
	// slow capture far above any locate.
	traced, err := iupdater.NewDeployment(d.Snapshot().Fingerprints(), d.Geometry(),
		iupdater.WithTracer(trace.New(trace.Config{DefaultSlow: time.Hour}), siteName(0)))
	if err != nil {
		return err
	}
	geo := d.Geometry()
	fp := d.Snapshot().Fingerprints()
	ix := loc.NewIndexCols(geo.Links, geo.NumCells(), func(j int, dst []float64) { copy(dst, fp.Col(j)) },
		geo.PerStrip, loc.IndexConfig{})
	omp := loc.NewOMPPointIndex(ix, geom.NewGrid(geo.WidthM, geo.HeightM, geo.Links, geo.PerStrip), loc.OMPConfig{})
	ctx := context.Background()
	pool := l.in.pools[0][0]
	end := time.Now().Add(l.budget)
	for i := 0; time.Now().Before(end); i++ {
		q := &pool[i%len(pool)]
		id := uint64(i)
		// The served path's in-process part, in handler order.
		t0 := time.Now()
		if _, _, err := site.Hydrate(); err != nil {
			return err
		}
		t1 := time.Now()
		root := l.spans.record(id, 0, "ladder.query", t0, t0)
		l.spans.record(id, root, "fleet.hydrate", t0, t1)
		if l.w.batch > 0 {
			if _, err := d.LocateBatch(ctx, q.rss); err != nil {
				return err
			}
			l.spans.record(id, root, "deployment.batch", t1, time.Now())
		} else {
			if _, err := d.Locate(q.rss[0]); err != nil {
				return err
			}
			l.spans.record(id, root, "deployment.locate", t1, time.Now())
		}
		// Observe runs on the served path only where the server
		// monitors; elsewhere it is timed as a layer of its own.
		parent := root
		if !l.w.monitor {
			l.spans.end(root, time.Now())
			parent = 0
		}
		t2 := time.Now()
		for _, rss := range q.rss {
			if err := mon.Observe(rss); err != nil {
				return err
			}
		}
		t3 := time.Now()
		l.spans.record(id, parent, "monitor.observe", t2, t3)
		if l.w.monitor {
			l.spans.end(root, t3)
		}

		// The other layers, on the same measurements.
		t0 = time.Now()
		var info loc.SearchInfo
		if _, err := omp.LocatePointInfo(q.rss[0], &info); err != nil {
			return err
		}
		l.spans.record(id, 0, "loc.locate", t0, time.Now())
		l.columnEvals = append(l.columnEvals, float64(info.ColumnEvals))
		if l.w.batch > 0 {
			t0 = time.Now()
			if _, err := d.Locate(q.rss[0]); err != nil {
				return err
			}
			l.spans.record(id, 0, "deployment.locate", t0, time.Now())
		} else {
			batch := make([][]float64, 64)
			for j := range batch {
				batch[j] = pool[(i+j)%len(pool)].rss[0]
			}
			t0 = time.Now()
			if _, err := d.LocateBatch(ctx, batch); err != nil {
				return err
			}
			l.spans.record(id, 0, "deployment.batch", t0, time.Now())
		}
		t0 = time.Now()
		if _, err := traced.Locate(q.rss[0]); err != nil {
			return err
		}
		l.spans.record(id, 0, "trace.locate", t0, time.Now())
	}
	return nil
}

// fleet replays the workload's Zipf site sequence through an in-process
// fleet of durable sites under the server's resident cap, timing every
// Hydrate. (The rehydration count comes from the served run.)
func (l *ladder) fleet(env iupdater.Environment) error {
	dir := filepath.Join(l.workDir, "ladder-fleet")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	f := iupdater.NewFleet(iupdater.WithResidentLimit(l.w.resident))
	defer f.Close()
	sites := make([]*iupdater.Site, l.w.sites)
	for s := range sites {
		st, err := iupdater.OpenStore(filepath.Join(dir, siteName(s)))
		if err != nil {
			return err
		}
		d, _, err := iupdater.NewTestbed(env, l.seed+uint64(s)).Deploy(0, 50, iupdater.WithStore(st))
		if err != nil {
			st.Close()
			return err
		}
		if sites[s], err = f.AddSite(siteName(s), iupdater.SiteConfig{Deployment: d}); err != nil {
			st.Close()
			return err
		}
	}
	for i, s := range l.in.siteSeq[:fleetReplay] {
		site := sites[s]
		name := "fleet.hydrate"
		if !site.Hydrated() {
			name = "fleet.rehydrate"
		}
		t0 := time.Now()
		if _, _, err := site.Hydrate(); err != nil {
			return err
		}
		l.spans.record(uint64(i), 0, name, t0, time.Now())
	}
	return nil
}

// fleetReplay is the number of /locate site picks the fleet ladder
// replays.
const fleetReplay = 10000

// updates replays the run's update schedule in process: the testbed
// measurements at each update's clock, core reconstruction alone, and
// the in-memory Deployment.Update around it.
func (l *ladder) updates(d *iupdater.Deployment, tb *iupdater.Testbed) error {
	refs, err := d.ReferenceLocations()
	if err != nil {
		return err
	}
	fp := d.Snapshot().Fingerprints()
	cu, err := core.NewUpdater(fingerprint.New(mat.NewFromRows(fp.ToRows()), 0), core.DefaultUpdaterConfig())
	if err != nil {
		return err
	}
	for k := range l.in.days {
		at := l.in.clocks[k+1]
		nd, known := tb.NoDecreaseMatrix(at), tb.Mask()
		xr, _ := tb.ReferenceMatrix(at, refs)
		links, cells := nd.Dims()
		mask := fingerprint.NewMask(links, cells, func(i, j int) bool { return !known.Known(i, j) })
		xb := mask.Project(mat.NewFromRows(nd.ToRows()))
		xrd := mat.NewFromRows(xr.ToRows())
		t0 := time.Now()
		if _, _, err := cu.Update(xb, mask, xrd, 0); err != nil {
			return err
		}
		t1 := time.Now()
		l.spans.record(uint64(k), 0, "core.reconstruct", t0, t1)
		if _, err := d.Update(nd, known, xr); err != nil {
			return err
		}
		l.spans.record(uint64(k), 0, "deployment.update", t1, time.Now())
	}
	return nil
}

// store replays the leader's site-0 record log: every version is
// materialized from the leader's log (store.At), appended with fsync
// to a fresh log (AppendDelta), and the fresh log's frames are applied
// by a follower-side Replay.
func (l *ladder) store(leaderDir string, links int) error {
	src, err := store.Open(leaderDir, store.Options{})
	if err != nil {
		return err
	}
	defer src.Close()
	dir := filepath.Join(l.workDir, "ladder-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	dst, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer dst.Close()
	// The layout Deployment persists snapshots with: a 33-byte header,
	// then one chunk per fingerprint column.
	layout := store.Layout{HeaderLen: 33, ChunkSize: links * 8}
	for _, v := range src.Versions() {
		t0 := time.Now()
		payload, err := src.At(v)
		t1 := time.Now()
		if err != nil {
			return err
		}
		l.spans.record(v, 0, "store.at", t0, t1)
		if _, err := dst.AppendDelta(v, payload, layout); err != nil {
			return fmt.Errorf("store ladder v%d: %w", v, err)
		}
		l.spans.record(v, 0, "store.append", t1, time.Now())
	}
	recs := dst.Records()
	if len(recs) < 2 {
		return fmt.Errorf("store ladder: %d records, want the initial one plus updates", len(recs))
	}
	for _, r := range recs[1:] {
		l.deltaBytes += float64(r.Bytes)
		l.fullBytes += float64(recs[0].Bytes)
	}
	frames, err := dst.RecordFramesFrom(recs[0].Version)
	if err != nil {
		return err
	}
	var rp store.Replay
	for _, fr := range frames {
		t0 := time.Now()
		v, _, err := rp.Apply(fr)
		if err != nil {
			return err
		}
		l.spans.record(v, 0, "replica.apply", t0, time.Now())
	}
	return nil
}
