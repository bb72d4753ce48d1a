// Package drift turns a stream of live localization queries into a
// staleness signal for the fingerprint database, plus streaming change
// detectors over that signal. It is the detection half of the
// detect -> measure -> update loop: the paper shows how to refresh a
// stale database cheaply, this package decides *when* the database has
// gone stale, from the traffic the deployment is already serving.
//
// The per-query staleness residual is the RMS distance (dB) between the
// mean-centered online RSS vector and its best-matching mean-centered
// fingerprint column. A fresh database explains live queries down to the
// short-term noise floor; as the environment drifts, every column's
// per-link shape goes wrong in the same way for every query, so the
// best-match residual rises by the idiosyncratic (non-common-mode) part
// of the drift. Mean-centering both sides removes the common-mode
// component — transmit-power wander and correlated environmental drift —
// which a localizer is equally insensitive to, so the residual tracks
// exactly the staleness that degrades localization.
//
// Everything in this package is allocation-free in steady state: the
// Residualizer scores a query into caller-provided scratch, and the
// detectors run on O(1) or fixed-ring state allocated at construction.
package drift

import (
	"math"

	"iupdater/internal/loc"
)

// Residualizer scores online RSS vectors against one fingerprint
// database version. It runs the best-match search through a loc.Index —
// typically the one already built for the snapshot's localizer, so
// monitoring a new version costs no extra column copies. Residual is
// read-only and safe for concurrent use.
//
// The residual is exact regardless of the index's configured search
// tier: the index answers the centered nearest-column query through its
// pruning bounds (same value as the exhaustive scan, fewer columns
// touched) and never through the approximate sharded routing, because
// change detectors are calibrated against the true residual.
type Residualizer struct {
	m  int
	ix *loc.Index
}

// NewResidualizer builds the scorer for an m-link by n-location
// fingerprint matrix read through at.
func NewResidualizer(m, n int, at func(i, j int) float64) *Residualizer {
	ix := loc.NewIndexCols(m, n, func(j int, dst []float64) {
		for i := range dst {
			dst[i] = at(i, j)
		}
	}, 0, loc.IndexConfig{})
	return NewResidualizerIndex(ix)
}

// NewResidualizerIndex builds the scorer over a prebuilt column index,
// sharing it with the localizers built from the same index.
func NewResidualizerIndex(ix *loc.Index) *Residualizer {
	m, _ := ix.Dims()
	return &Residualizer{m: m, ix: ix}
}

// Links returns the number of links m a query vector must have.
func (r *Residualizer) Links() int { return r.m }

// Residual returns the staleness residual for one online measurement y:
// the RMS distance (dB per link) between the centered query and the
// nearest centered fingerprint column. scratch must have length >=
// Links() and is overwritten; no allocation is performed. The error is
// loc.ErrNoCandidate when y has no column at a finite distance (a NaN,
// infinite or overflowing reading).
func (r *Residualizer) Residual(y, scratch []float64) (float64, error) {
	m := r.m
	var mean float64
	for _, v := range y[:m] {
		mean += v
	}
	mean /= float64(m)
	yc := scratch[:m]
	for i, v := range y[:m] {
		yc[i] = v - mean
	}
	_, best, ok := r.ix.NearestCentered(yc)
	if !ok {
		return 0, loc.ErrNoCandidate
	}
	return math.Sqrt(best / float64(m)), nil
}

// ResidualAttributed is Residual plus per-link attribution: perLink[i]
// receives the absolute shape error |yc[i] - col[i]| (dB) between the
// centered query and its best-matching centered fingerprint column at
// link i — the per-link terms the RMS residual collapses. perLink must
// have length >= Links(); no allocation is performed. The error is as
// in Residual, and perLink is then left untouched.
func (r *Residualizer) ResidualAttributed(y, scratch, perLink []float64) (float64, error) {
	m := r.m
	var mean float64
	for _, v := range y[:m] {
		mean += v
	}
	mean /= float64(m)
	yc := scratch[:m]
	for i, v := range y[:m] {
		yc[i] = v - mean
	}
	bestJ, best, ok := r.ix.NearestCentered(yc)
	if !ok {
		return 0, loc.ErrNoCandidate
	}
	col := r.ix.CenteredCol(bestJ)
	for i := range yc {
		perLink[i] = math.Abs(yc[i] - col[i])
	}
	return math.Sqrt(best / float64(m)), nil
}
