package iupdater

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// carryFleet registers an office site "s" (fresh survey, durable
// in-memory store) in a fleet that keeps one site resident, next to a
// second parkable site "other" whose hydration parks "s". It returns
// the testbed, the survey and both sites.
func carryFleet(t *testing.T, seed uint64) (*Testbed, Matrix, *Site, *Site) {
	t.Helper()
	tb := NewTestbed(Office(), seed)
	survey, _ := tb.SurveyMatrix(0, 20)
	st, err := OpenStore("", WithBackend(NewMemoryBackend()), WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(survey, tb.Geometry(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(WithResidentLimit(1))
	t.Cleanup(func() { f.Close() })
	site, err := f.AddSite("s", SiteConfig{Deployment: d})
	if err != nil {
		t.Fatal(err)
	}
	other, _ := addMemorySite(t, f, "other", 1, 1)
	return tb, survey, site, other
}

// sameBits reports whether two matrices hold bit-identical values
// (stricter than ==, which equates 0 and -0).
func sameBits(a, b Matrix) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for k := range a.data {
		if math.Float64bits(a.data[k]) != math.Float64bits(b.data[k]) {
			return false
		}
	}
	return true
}

// TestFleetParkKeepsCorrelation: a site parked and rehydrated between
// every update keeps the correlation state it learned from the survey,
// so every version it publishes — and every set of reference locations
// it asks for — is bit-identical to a never-parked twin's on the same
// inputs. A rehydration that re-learned the correlation from the latest
// reconstructed snapshot would pick other references and another Z.
func TestFleetParkKeepsCorrelation(t *testing.T) {
	const updates = 40
	tb, survey, site, other := carryFleet(t, 3)
	twin, err := NewDeployment(survey, tb.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < updates; u++ {
		if _, _, err := other.Hydrate(); err != nil {
			t.Fatal(err)
		}
		if site.Hydrated() {
			t.Fatalf("update %d: site still hydrated past the resident limit", u)
		}
		d, _, err := site.Hydrate()
		if err != nil {
			t.Fatal(err)
		}
		refs, err := d.ReferenceLocations()
		if err != nil {
			t.Fatal(err)
		}
		twinRefs, err := twin.ReferenceLocations()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(refs, twinRefs) {
			t.Fatalf("update %d: rehydrated references %v, never-parked %v", u, refs, twinRefs)
		}
		at := time.Duration(u+1) * 2 * day
		cols, _ := tb.ReferenceMatrix(at, refs)
		noDec, mask := tb.NoDecreaseMatrix(at), tb.Mask()
		got, err := d.Update(noDec, mask, cols)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Update(noDec, mask, cols)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version() != want.Version() {
			t.Fatalf("update %d: version %d, never-parked %d", u, got.Version(), want.Version())
		}
		if !sameBits(got.fp, want.fp) {
			t.Fatalf("update %d (v%d): published fingerprints differ from the never-parked twin", u, got.Version())
		}
	}
}

// TestFleetParkRacesUpdate runs park concurrently with Update and
// ReferenceLocations on the same site (under -race in CI): parking
// must wait out an in-flight update before it takes the correlation
// state, and every rehydrated deployment must ask for the same
// reference locations.
func TestFleetParkRacesUpdate(t *testing.T) {
	updates := 12
	if raceEnabled {
		updates = 6
	}
	tb, _, site, other := carryFleet(t, 5)
	d, _, err := site.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := d.ReferenceLocations()
	if err != nil {
		t.Fatal(err)
	}
	type updateInput struct {
		noDec Matrix
		mask  Mask
		cols  Matrix
	}
	inputs := make([]updateInput, updates)
	for u := range inputs {
		at := time.Duration(u+1) * 3 * day
		cols, _ := tb.ReferenceMatrix(at, refs)
		inputs[u] = updateInput{noDec: tb.NoDecreaseMatrix(at), mask: tb.Mask(), cols: cols}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	// Parker: hydrating the other site parks "s" whenever it is
	// resident. Only the writer rehydrates "s", so a parked
	// deployment's in-flight update always lands in the store before
	// the next rehydration reads it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, _, err := other.Hydrate(); err != nil {
				errs <- err
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	// Reader: ReferenceLocations on whatever deployment is resident.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if d := site.Deployment(); d != nil {
				got, err := d.ReferenceLocations()
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(got, refs) {
					t.Errorf("references changed across park: %v, want %v", got, refs)
					return
				}
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	var last uint64
	for u, in := range inputs {
		d, _, err := site.Hydrate()
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.ReferenceLocations()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, refs) {
			t.Fatalf("update %d: references %v, want %v", u, got, refs)
		}
		snap, err := d.Update(in.noDec, in.mask, in.cols)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version() <= last {
			t.Fatalf("update %d: version %d after %d", u, snap.Version(), last)
		}
		last = snap.Version()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := site.store.LatestVersion(); got != last {
		t.Errorf("store latest v%d, last publish v%d", got, last)
	}
	if site.fleet.Stats().Rehydrations == 0 {
		t.Error("the site was never parked during the updates")
	}
}

// TestFleetParkKeepsInstruments: the locate-latency histogram, the
// update-stage histograms and the publish counter survive a
// park/rehydrate cycle instead of restarting at zero.
func TestFleetParkKeepsInstruments(t *testing.T) {
	tb, _, site, other := carryFleet(t, 7)
	d, _, err := site.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := d.ReferenceLocations()
	if err != nil {
		t.Fatal(err)
	}
	at := 10 * day
	cols, _ := tb.ReferenceMatrix(at, refs)
	if _, err := d.Update(tb.NoDecreaseMatrix(at), tb.Mask(), cols); err != nil {
		t.Fatal(err)
	}
	x, y := tb.CellCenter(42)
	if _, err := d.Locate(tb.MeasureOnline(x, y, at)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.Hydrate(); err != nil {
		t.Fatal(err)
	}
	if site.Hydrated() {
		t.Fatal("site not parked")
	}
	d2, _, err := site.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	if d2 == d {
		t.Fatal("rehydration returned the parked deployment")
	}
	if got := d2.LocateLatency().Snapshot().Count; got != 1 {
		t.Errorf("locate latency count after rehydrate = %d, want 1", got)
	}
	if got := d2.UpdateStageLatency(StageReconstruct).Snapshot().Count; got != 1 {
		t.Errorf("reconstruct stage count after rehydrate = %d, want 1", got)
	}
	if got := d2.Publishes(); got != 1 {
		t.Errorf("publishes after rehydrate = %d, want 1", got)
	}
}
