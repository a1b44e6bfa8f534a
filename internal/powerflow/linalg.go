package powerflow

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the Jacobian (or any solved system) is
// numerically singular.
var ErrSingular = errors.New("powerflow: singular matrix")

// solveDense solves A x = b in place using Gaussian elimination with partial
// pivoting. A is row-major n×n; both A and b are destroyed. The returned slice
// aliases b.
//
// The sparse engine falls back to it when static pivoting fails, and the
// differential tests solve with it as their reference. The singularity test
// is relative to the matrix norm (singularTol, shared with the sparse LU),
// so a well-conditioned but uniformly small- or large-valued Jacobian is
// judged by its conditioning, not its scale.
func solveDense(a []float64, b []float64) ([]float64, error) {
	n := len(b)
	if len(a) != n*n {
		return nil, fmt.Errorf("powerflow: matrix %d elements, want %d", len(a), n*n)
	}
	scale := 0.0
	for _, v := range a {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	if scale == 0 && n > 0 {
		return nil, ErrSingular
	}
	tol := singularTol * scale
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < tol {
			return nil, ErrSingular
		}
		if pivot != col {
			for c := col; c < n; c++ {
				a[col*n+c], a[pivot*n+c] = a[pivot*n+c], a[col*n+c]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for c := col + 1; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r*n+c] * b[c]
		}
		b[r] = sum / a[r*n+r]
	}
	return b, nil
}
