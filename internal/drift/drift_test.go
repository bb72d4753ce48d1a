package drift

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"iupdater/internal/loc"
)

// toy fingerprint matrix: 4 links, 3 locations, distinct column shapes.
var toyCols = [][]float64{
	{-50, -60, -55, -45},
	{-70, -48, -52, -58},
	{-44, -66, -61, -49},
}

func toyResidualizer() *Residualizer {
	return NewResidualizer(4, 3, func(i, j int) float64 { return toyCols[j][i] })
}

func TestResidualExactMatchIsZero(t *testing.T) {
	r := toyResidualizer()
	scratch := make([]float64, 4)
	for j, col := range toyCols {
		if got, err := r.Residual(col, scratch); err != nil || got > 1e-12 {
			t.Errorf("column %d: residual %g (%v), want 0", j, got, err)
		}
	}
}

func TestResidualIgnoresCommonMode(t *testing.T) {
	// A constant per-link offset (common-mode drift, TX power wander) must
	// not register as staleness: centering removes it.
	r := toyResidualizer()
	scratch := make([]float64, 4)
	y := make([]float64, 4)
	for i, v := range toyCols[1] {
		y[i] = v + 7.5
	}
	if got, err := r.Residual(y, scratch); err != nil || got > 1e-12 {
		t.Errorf("common-mode offset: residual %g (%v), want 0", got, err)
	}
}

func TestResidualBestMatch(t *testing.T) {
	// A query exactly delta away on one link from its true column must
	// score sqrt(delta^2 * (1 - 1/m)) / sqrt(m)... computed directly: the
	// centered difference is delta on link 0 minus delta/m on every link.
	r := toyResidualizer()
	scratch := make([]float64, 4)
	y := append([]float64(nil), toyCols[0]...)
	const delta = 2.0
	y[0] += delta
	m := 4.0
	want := math.Sqrt(delta * delta * (1 - 1/m) / m)
	if got, err := r.Residual(y, scratch); err != nil || math.Abs(got-want) > 1e-12 {
		t.Errorf("one-link deviation: residual %g (%v), want %g", got, err, want)
	}
	// The best match must still be the true column: a residual against
	// the other columns would be far larger.
	if got, _ := r.Residual(y, scratch); got > 3 {
		t.Errorf("residual %g suggests wrong best-match column", got)
	}
}

// TestResidualNoCandidate: a reading that is NaN, infinite or so large
// that every squared distance overflows has no best-match column. The
// residual must say so instead of indexing column -1.
func TestResidualNoCandidate(t *testing.T) {
	r := toyResidualizer()
	scratch := make([]float64, 4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
		y := append([]float64(nil), toyCols[1]...)
		y[2] = bad
		if _, err := r.Residual(y, scratch); !errors.Is(err, loc.ErrNoCandidate) {
			t.Errorf("reading %g: Residual error %v, want loc.ErrNoCandidate", bad, err)
		}
		perLink := []float64{-1, -1, -1, -1}
		if _, err := r.ResidualAttributed(y, scratch, perLink); !errors.Is(err, loc.ErrNoCandidate) {
			t.Errorf("reading %g: ResidualAttributed error %v, want loc.ErrNoCandidate", bad, err)
		}
		for i, v := range perLink {
			if v != -1 {
				t.Errorf("reading %g: perLink[%d] written (%g) without a candidate", bad, i, v)
			}
		}
	}
}

func TestResidualAllocationFree(t *testing.T) {
	r := toyResidualizer()
	scratch := make([]float64, 4)
	y := append([]float64(nil), toyCols[2]...)
	if allocs := testing.AllocsPerRun(200, func() {
		r.Residual(y, scratch)
	}); allocs != 0 {
		t.Errorf("Residual allocates %.1f per call, want 0", allocs)
	}
}

// noisyStream yields a deterministic pseudo-residual stream with the
// given mean and sigma.
func noisyStream(seed int64, mu, sigma float64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 { return mu + sigma*rng.NormFloat64() }
}

func TestMeanShiftDetectsShiftNotNoise(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := NewMeanShift(MeanShiftConfig{Baseline: 200, Window: 64, K: 5, MinShiftDB: 0.3})
		next := noisyStream(seed, 1.0, 0.1)
		// Calibration plus a long stationary stretch: no flags.
		for i := 0; i < 5000; i++ {
			if d.Observe(next()) {
				t.Fatalf("seed %d: false positive at stationary sample %d (score %.2f)", seed, i, d.Score())
			}
		}
		if s := d.Score(); s >= 1 {
			t.Fatalf("seed %d: stationary score %.2f >= 1", seed, s)
		}
		// An abrupt persistent shift must flag within ~2 windows.
		shifted := noisyStream(seed+100, 2.0, 0.1)
		flaggedAt := -1
		for i := 0; i < 200; i++ {
			if d.Observe(shifted()) {
				flaggedAt = i
				break
			}
		}
		if flaggedAt < 0 || flaggedAt > 128 {
			t.Fatalf("seed %d: shift flagged at %d, want within 128", seed, flaggedAt)
		}
		if s := d.Score(); s < 1 {
			t.Fatalf("seed %d: flagged but score %.2f < 1", seed, s)
		}
		// Reset re-calibrates on the new level: no flags afterwards.
		d.Reset()
		for i := 0; i < 1000; i++ {
			if d.Observe(shifted()) {
				t.Fatalf("seed %d: flag after re-calibration at %d", seed, i)
			}
		}
	}
}

func TestPageHinkleyDetectsSlowRamp(t *testing.T) {
	d := NewPageHinkley(PageHinkleyConfig{Baseline: 200, Delta: 0.5, Lambda: 40})
	next := noisyStream(7, 1.0, 0.1)
	for i := 0; i < 5000; i++ {
		if d.Observe(next()) {
			t.Fatalf("false positive at stationary sample %d", i)
		}
	}
	// A slow ramp of +0.002 dB per sample: single windows barely move,
	// but the cumulative statistic must cross within a few thousand
	// samples.
	rng := rand.New(rand.NewSource(9))
	flaggedAt := -1
	for i := 0; i < 4000; i++ {
		r := 1.0 + 0.002*float64(i) + 0.1*rng.NormFloat64()
		if d.Observe(r) {
			flaggedAt = i
			break
		}
	}
	if flaggedAt < 0 {
		t.Fatal("slow ramp never flagged")
	}
	d.Reset()
	if s := d.Score(); s != 0 {
		t.Fatalf("score %.2f after Reset, want 0", s)
	}
}

func TestDetectorsAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Detector
	}{
		{"MeanShift", NewMeanShift(MeanShiftConfig{})},
		{"PageHinkley", NewPageHinkley(PageHinkleyConfig{})},
	} {
		next := noisyStream(11, 1.0, 0.1)
		for i := 0; i < 500; i++ { // past calibration
			tc.d.Observe(next())
		}
		if allocs := testing.AllocsPerRun(200, func() {
			tc.d.Observe(next())
			tc.d.Score()
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per observe, want 0", tc.name, allocs)
		}
	}
}

func TestDetectorsDeterministic(t *testing.T) {
	run := func(d Detector) []bool {
		next := noisyStream(3, 1.0, 0.2)
		out := make([]bool, 3000)
		for i := range out {
			r := next()
			if i > 1500 {
				r += 1.5
			}
			out[i] = d.Observe(r)
		}
		return out
	}
	a := run(NewMeanShift(MeanShiftConfig{}))
	b := run(NewMeanShift(MeanShiftConfig{}))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("MeanShift diverges at %d", i)
		}
	}
	c := run(NewPageHinkley(PageHinkleyConfig{}))
	d := run(NewPageHinkley(PageHinkleyConfig{}))
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("PageHinkley diverges at %d", i)
		}
	}
}

func TestBaselineExportImportSkipsCalibration(t *testing.T) {
	// Calibrate a detector on a stationary stream, export the floor,
	// import it into a fresh detector (a process restart): the restored
	// detector must flag a shift without re-running the 200-sample
	// calibration window, and must not false-positive on the floor.
	next := noisyStream(11, 1.0, 0.1)
	src := NewMeanShift(MeanShiftConfig{Baseline: 200, Window: 64, K: 5, MinShiftDB: 0.3})
	for i := 0; i < 400; i++ {
		src.Observe(next())
	}
	mu, sigma, ok := src.Baseline()
	if !ok {
		t.Fatal("source detector not calibrated after 400 samples")
	}
	if mu < 0.9 || mu > 1.1 {
		t.Fatalf("exported mu %.3f far from the true floor 1.0", mu)
	}

	restored := NewMeanShift(MeanShiftConfig{Baseline: 200, Window: 64, K: 5, MinShiftDB: 0.3})
	if _, _, ok := restored.Baseline(); ok {
		t.Fatal("fresh detector claims to be calibrated")
	}
	restored.SetBaseline(mu, sigma)
	if rmu, _, ok := restored.Baseline(); !ok || rmu != mu {
		t.Fatalf("Baseline after SetBaseline = %.3f ok=%v", rmu, ok)
	}
	// Stationary traffic at the restored floor: no flags.
	for i := 0; i < 1000; i++ {
		if restored.Observe(next()) {
			t.Fatalf("false positive at %d after baseline import", i)
		}
	}
	// A shift flags within ~the window — far sooner than the 200-sample
	// calibration a cold detector would need first.
	shifted := noisyStream(12, 2.0, 0.1)
	flaggedAt := -1
	for i := 0; i < 200; i++ {
		if restored.Observe(shifted()) {
			flaggedAt = i
			break
		}
	}
	if flaggedAt < 0 || flaggedAt > 128 {
		t.Fatalf("restored detector flagged at %d, want within 128", flaggedAt)
	}

	// Same restart contract for Page-Hinkley.
	ph := NewPageHinkley(PageHinkleyConfig{Baseline: 200, Delta: 0.5, Lambda: 40})
	ph.SetBaseline(mu, sigma)
	if _, _, ok := ph.Baseline(); !ok {
		t.Fatal("PageHinkley not calibrated after SetBaseline")
	}
	flaggedAt = -1
	for i := 0; i < 500; i++ {
		if ph.Observe(shifted()) {
			flaggedAt = i
			break
		}
	}
	if flaggedAt < 0 {
		t.Fatal("restored PageHinkley never flagged a 10-sigma shift")
	}
}

func TestSetBaselineFloorsSigma(t *testing.T) {
	d := NewMeanShift(MeanShiftConfig{MinSigma: 0.05})
	d.SetBaseline(1.0, 0) // a zero sigma would make every threshold zero
	if _, sigma, ok := d.Baseline(); !ok || sigma < 0.05 {
		t.Fatalf("sigma %.3f not floored to MinSigma", sigma)
	}
}
