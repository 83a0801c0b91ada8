package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		s    Sample
		want float64
	}{
		{"single", Sample{5}, 5},
		{"pair", Sample{2, 4}, 3},
		{"negative", Sample{-1, 1}, 0},
	}
	for _, tt := range tests {
		if got := tt.s.Mean(); got != tt.want {
			t.Errorf("%s: Mean = %v, want %v", tt.name, got, tt.want)
		}
	}
	if !math.IsNaN((Sample{}).Mean()) {
		t.Error("empty mean should be NaN")
	}
}

func TestStdDev(t *testing.T) {
	// Known value: {2,4,4,4,5,5,7,9} has sample stddev ≈ 2.138.
	s := Sample{2, 4, 4, 4, 5, 5, 7, 9}
	if got := s.StdDev(); math.Abs(got-2.13809) > 1e-4 {
		t.Errorf("StdDev = %v, want ≈2.138", got)
	}
	if (Sample{1}).StdDev() != 0 {
		t.Error("singleton stddev should be 0")
	}
	if (Sample{}).StdDev() != 0 {
		t.Error("empty stddev should be 0")
	}
}

func TestCI95(t *testing.T) {
	s := Sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	se := s.StdDev() / math.Sqrt(10)
	if got, want := s.CI95(), 1.96*se; math.Abs(got-want) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

// Property: mean is always within [min, max]; stddev is non-negative.
func TestPropertyMeanBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		s := make(Sample, len(raw))
		for i, v := range raw {
			s[i] = float64(v)
		}
		m := s.Mean()
		return m >= slices.Min(s)-1e-9 && m <= slices.Max(s)+1e-9 && s.StdDev() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairedSavings(t *testing.T) {
	// Each field has wildly different absolute scale, but a is always
	// exactly 20% below b: the paired CI must be (near) zero while the
	// unpaired spread is huge.
	b := Sample{10, 100, 1000, 50}
	a := Sample{8, 80, 800, 40}
	mean, ci, err := PairedSavings(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-0.2) > 1e-12 {
		t.Fatalf("mean savings = %v, want 0.2", mean)
	}
	if ci > 1e-12 {
		t.Fatalf("paired CI = %v, want ~0 for a constant ratio", ci)
	}
	if _, _, err := PairedSavings(Sample{1}, Sample{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := PairedSavings(Sample{}, Sample{}); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, _, err := PairedSavings(Sample{1}, Sample{0}); err == nil {
		t.Fatal("zero baseline accepted")
	}
}

// TestNearestRank pins the percentile rule wsnsim's latency columns and
// tracestat share: the p-th percentile of n ascending observations is the
// one at rank ceil(p·n). With n = 11, p95 is the 11th value (rank 10.45
// rounds up), not the 10th that rounding to the nearest rank picks.
func TestNearestRank(t *testing.T) {
	eleven := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, c := range []struct {
		p    float64
		want int
	}{
		{0.01, 1},
		{0.50, 6},
		{0.95, 11},
		{0.99, 11},
		{1, 11},
	} {
		if got := NearestRank(eleven, c.p); got != c.want {
			t.Errorf("NearestRank(1..11, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := NearestRank([]float64{0.5, 1.5, 2.5, 3.5}, 0.5); got != 1.5 {
		t.Errorf("median of 4 = %v, want the 2nd value 1.5", got)
	}
	if got := NearestRank([]float64(nil), 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}
