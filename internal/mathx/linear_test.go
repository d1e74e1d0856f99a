package mathx

import (
	"math"
	"testing"
	"testing/quick"

	"deepheal/internal/rngx"
)

func TestSolveLUKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3
	a := NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveLU(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(x[0], 1, 1e-12) || !AlmostEqual(x[1], 3, 1e-12) {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestSolveLUDimensionMismatch(t *testing.T) {
	a := NewDense(2, 3)
	if _, err := SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("expected dimension error for non-square matrix")
	}
}

func TestSolveLURandomResidual(t *testing.T) {
	// Property: for random well-conditioned systems, A·x ≈ b.
	rng := rngx.New(42)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(12)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Uniform(-1, 1))
			}
			a.Add(i, i, float64(n)) // diagonally dominant => well conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Uniform(-10, 10)
		}
		aCopy := a.Clone()
		bCopy := make([]float64, n)
		copy(bCopy, b)
		x, err := SolveLU(aCopy, bCopy)
		if err != nil {
			t.Fatal(err)
		}
		got := a.MulVec(x)
		for i := range got {
			if !AlmostEqual(got[i], b[i], 1e-9) {
				t.Fatalf("trial %d: residual at %d: %g vs %g", trial, i, got[i], b[i])
			}
		}
	}
}

func TestSolveTridiagMatchesDense(t *testing.T) {
	rng := rngx.New(7)
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.IntN(20)
		lower := make([]float64, n)
		diag := make([]float64, n)
		upper := make([]float64, n)
		rhs := make([]float64, n)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			diag[i] = rng.Uniform(3, 6)
			rhs[i] = rng.Uniform(-5, 5)
			a.Set(i, i, diag[i])
			if i > 0 {
				lower[i] = rng.Uniform(-1, 1)
				a.Set(i, i-1, lower[i])
			}
			if i < n-1 {
				upper[i] = rng.Uniform(-1, 1)
				a.Set(i, i+1, upper[i])
			}
		}
		want, err := SolveLU(a.Clone(), append([]float64(nil), rhs...))
		if err != nil {
			t.Fatal(err)
		}
		got, cp := make([]float64, n), make([]float64, n)
		if err := SolveTridiagInto(got, cp, lower, diag, upper, rhs); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !AlmostEqual(got[i], want[i], 1e-9) {
				t.Fatalf("trial %d idx %d: thomas %g vs dense %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveTridiagLengthMismatch(t *testing.T) {
	three := func() []float64 { return make([]float64, 3) }
	if err := SolveTridiagInto(three(), three(), make([]float64, 2), three(), three(), three()); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestDenseMulVecIdentity(t *testing.T) {
	f := func(v0, v1, v2 float64) bool {
		for _, x := range []float64{v0, v1, v2} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		id := NewDense(3, 3)
		for i := 0; i < 3; i++ {
			id.Set(i, i, 1)
		}
		got := id.MulVec([]float64{v0, v1, v2})
		return got[0] == v0 && got[1] == v1 && got[2] == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
