package main

import (
	"fmt"
	"math"
	"path/filepath"

	"iupdater"
)

// siteVersion keys one site's database at one version.
type siteVersion struct {
	site    int
	version uint64
}

// gate is the correctness check of one run. It holds every version of
// every site's database, read back from the leader's stores after the
// server stopped, and verifies each observation against them.
type gate struct {
	geo    iupdater.Geometry
	stored map[siteVersion]iupdater.Matrix
	// leader holds the GET /snapshot fingerprints; where a version was
	// observed there, served positions are checked against them.
	leader map[siteVersion]iupdater.Matrix
	snaps  map[siteVersion]*iupdater.Snapshot
	// mismatches counts failed checks; errs keeps the first few.
	mismatches int
	errs       []string
	checked    int
}

func newGate(w workload, dataDir string) (*gate, error) {
	g := &gate{
		geo:    w.environment().Geometry(),
		stored: make(map[siteVersion]iupdater.Matrix),
		leader: make(map[siteVersion]iupdater.Matrix),
		snaps:  make(map[siteVersion]*iupdater.Snapshot),
	}
	for s := 0; s < w.sites; s++ {
		st, err := iupdater.OpenStore(filepath.Join(dataDir, siteName(s)))
		if err != nil {
			return nil, fmt.Errorf("opening site %s store: %w", siteName(s), err)
		}
		for _, v := range st.Versions() {
			fp, _, err := st.SnapshotAt(v)
			if err != nil {
				st.Close()
				return nil, fmt.Errorf("site %s v%d: %w", siteName(s), v, err)
			}
			g.stored[siteVersion{s, v}] = fp
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *gate) fail(format string, args ...any) {
	g.mismatches++
	if len(g.errs) < 5 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// observe checks snapshot observations: every GET /snapshot must equal
// the stored version bit for bit, and the follower must equal the
// leader at every version it was seen at.
func (g *gate) observe(obs []snapObs) {
	for _, o := range obs {
		if o.source == "leader" {
			g.leader[siteVersion{o.site, o.version}] = o.fp
		}
	}
	for _, o := range obs {
		g.checked++
		key := siteVersion{o.site, o.version}
		want, ok := g.leader[key]
		if !ok {
			want, ok = g.stored[key]
		}
		if !ok {
			g.fail("site %s v%d (%s): version not in the leader's store", siteName(o.site), o.version, o.source)
			continue
		}
		if st, ok := g.stored[key]; !ok || !sameBits(st, o.fp) || !sameBits(want, o.fp) {
			g.fail("site %s v%d: %s fingerprints differ from the leader's", siteName(o.site), o.version, o.source)
		}
	}
}

// snapshot returns the in-process snapshot of a site version, built
// from the GET /snapshot fingerprints when that version was observed
// there and from the leader's store otherwise.
func (g *gate) snapshot(key siteVersion) (*iupdater.Snapshot, error) {
	if s, ok := g.snaps[key]; ok {
		return s, nil
	}
	fp, ok := g.leader[key]
	if !ok {
		if fp, ok = g.stored[key]; !ok {
			return nil, fmt.Errorf("version not in the leader's store")
		}
	}
	d, err := iupdater.NewDeployment(fp, g.geo)
	if err != nil {
		return nil, err
	}
	g.snaps[key] = d.Snapshot()
	return g.snaps[key], nil
}

// locates checks that every served position is bit-identical to an
// in-process Snapshot.Locate at the reported version, and returns the
// distances (m) of the served positions from the true target
// positions, one per distinct query and version: the closed loop
// answers a query many times, and counting each answer would weight
// the error by how often the load cycled through a query.
func (g *gate) locates(all []served) []float64 {
	type answer struct {
		q       *query
		version uint64
	}
	want := make(map[answer][]iupdater.Position)
	var dists []float64
	for _, s := range all {
		key := siteVersion{s.q.site, s.version}
		ps, seen := want[answer{s.q, s.version}]
		if !seen {
			snap, err := g.snapshot(key)
			if err != nil {
				g.fail("site %s v%d: %v", siteName(key.site), key.version, err)
				continue
			}
			for _, rss := range s.q.rss {
				p, err := snap.Locate(rss)
				if err != nil {
					g.fail("site %s v%d: in-process locate: %v", siteName(key.site), key.version, err)
					p = iupdater.Position{X: math.NaN(), Y: math.NaN()}
				}
				ps = append(ps, p)
			}
			want[answer{s.q, s.version}] = ps
		}
		for j, p := range ps {
			g.checked++
			if math.Float64bits(p.X) != math.Float64bits(s.pos[j][0]) ||
				math.Float64bits(p.Y) != math.Float64bits(s.pos[j][1]) {
				g.fail("site %s v%d: served (%v, %v), in-process %+v",
					siteName(key.site), key.version, s.pos[j][0], s.pos[j][1], p)
				continue
			}
			if !seen {
				dists = append(dists, math.Hypot(p.X-s.q.truth[j][0], p.Y-s.q.truth[j][1]))
			}
		}
	}
	return dists
}

func (g *gate) ok() bool { return g.mismatches == 0 }

func sameBits(a, b iupdater.Matrix) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < ac; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// dbErrors returns, for each snapshot served after an update, the RMS
// difference (dB) between the served fingerprints and the testbed's
// noise-free truth at the site's clock at that moment. db_error_db is
// their mean: averaging over the run's versions keeps the figure from
// hinging on the drift at one instant.
func dbErrors(w workload, seed uint64, updated []snapObs) []float64 {
	tb := iupdater.NewTestbed(w.environment(), seed)
	var errs []float64
	for _, o := range updated {
		truth := tb.TrueMatrix(o.clock)
		r, c := truth.Dims()
		var sum float64
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				d := o.fp.At(i, j) - truth.At(i, j)
				sum += d * d
			}
		}
		errs = append(errs, math.Sqrt(sum/float64(r*c)))
	}
	return errs
}
