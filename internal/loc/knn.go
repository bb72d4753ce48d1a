package loc

import (
	"fmt"
	"math"

	"iupdater/internal/mat"
)

// NearestColumn is the simplest fingerprint matcher: the column with the
// smallest Euclidean distance to the measurement wins (lowest index on
// ties). Queries go through the column index, so candidate columns are
// pruned by the precomputed norm and shard bounds without changing the
// result.
type NearestColumn struct {
	ix *Index
}

var _ Localizer = (*NearestColumn)(nil)

// NewNearestColumn builds a nearest-column matcher over x with default
// (pruned, exact-result) search.
func NewNearestColumn(x *mat.Dense) *NearestColumn {
	return NewNearestColumnIndex(NewIndex(x, 0, IndexConfig{}))
}

// NewNearestColumnIndex builds a nearest-column matcher over a prebuilt
// column index.
func NewNearestColumnIndex(ix *Index) *NearestColumn {
	return &NearestColumn{ix: ix}
}

// Locate implements Localizer.
func (nc *NearestColumn) Locate(y []float64) (int, error) {
	if m, _ := nc.ix.Dims(); len(y) != m {
		return 0, fmt.Errorf("loc: measurement has %d links, fingerprints have %d", len(y), m)
	}
	j, _, ok := nc.ix.NearestRaw(y)
	if !ok {
		return 0, ErrNoCandidate
	}
	return j, nil
}

// KNN is the classic K-nearest-neighbor fingerprint matcher. Neighbors
// reports the K closest columns through a bounded top-k heap (no full
// sort over N candidates); Locate resolves to the single nearest column
// — see its comment for why the inverse-distance vote adds nothing
// here.
type KNN struct {
	ix *Index
	k  int
}

var _ Localizer = (*KNN)(nil)

// NewKNN builds a K-nearest-neighbor matcher; k <= 0 defaults to 3.
func NewKNN(x *mat.Dense, k int) *KNN {
	return NewKNNIndex(NewIndex(x, 0, IndexConfig{}), k)
}

// NewKNNIndex builds a K-nearest-neighbor matcher over a prebuilt
// column index.
func NewKNNIndex(ix *Index, k int) *KNN {
	if k <= 0 {
		k = 3
	}
	return &KNN{ix: ix, k: k}
}

// Neighbors returns the k nearest columns and their distances, in
// ascending (distance, column) order. The only allocations are the two
// result slices; use NeighborsInto to avoid even those.
func (kn *KNN) Neighbors(y []float64) ([]int, []float64, error) {
	_, n := kn.ix.Dims()
	k := kn.k
	if k > n {
		k = n
	}
	idx := make([]int, k)
	dist := make([]float64, k)
	got, err := kn.NeighborsInto(y, idx, dist)
	if err != nil {
		return nil, nil, err
	}
	return idx[:got], dist[:got], nil
}

// NeighborsInto fills idx/dist (each of length >= min(k, n)) with the k
// nearest columns in ascending (distance, column) order and returns how
// many were produced. It performs no allocations in steady state.
func (kn *KNN) NeighborsInto(y []float64, idx []int, dist []float64) (int, error) {
	m, _ := kn.ix.Dims()
	if len(y) != m {
		return 0, fmt.Errorf("loc: measurement has %d links, fingerprints have %d", len(y), m)
	}
	got := kn.ix.TopKRaw(y, kn.k, idx, dist)
	for i := 0; i < got; i++ {
		dist[i] = math.Sqrt(dist[i])
	}
	return got, nil
}

// Locate implements Localizer by returning the nearest column.
//
// In this codebase every fingerprint column is a distinct grid cell, so
// the classic inverse-distance-weighted KNN vote degenerates: each cell
// receives exactly one weight term, the nearest neighbor's weight is by
// construction the largest, and the vote always elects the nearest
// column. (An earlier implementation ran that vote and, inevitably,
// returned idx[0] every time.) Locate therefore asks the index for the
// nearest column directly; callers that want blended estimates across
// repeated measurements aggregate Neighbors output themselves.
func (kn *KNN) Locate(y []float64) (int, error) {
	m, _ := kn.ix.Dims()
	if len(y) != m {
		return 0, fmt.Errorf("loc: measurement has %d links, fingerprints have %d", len(y), m)
	}
	j, _, ok := kn.ix.NearestRaw(y)
	if !ok {
		return 0, ErrNoCandidate
	}
	return j, nil
}
