package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); math.Abs(got-tt.want*tt.want) > 1e-9 {
				t.Errorf("Dist2 = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSquare(t *testing.T) {
	r := Square(10, 20, 5)
	if r.MinX != 10 || r.MinY != 20 || r.MaxX != 15 || r.MaxY != 25 {
		t.Fatalf("Square = %+v", r)
	}
	if r.Width() != 5 || r.Height() != 5 {
		t.Fatalf("dims wrong: w=%v h=%v", r.Width(), r.Height())
	}
	if !r.Valid() {
		t.Fatal("square should be valid")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},   // boundary inclusive
		{Point{10, 10}, true}, // boundary inclusive
		{Point{-0.1, 5}, false},
		{Point{5, 10.1}, false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestSampleStaysInside(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Rect{MinX: 3, MinY: -2, MaxX: 7, MaxY: 9}
	for i := 0; i < 1000; i++ {
		p := r.Sample(rng)
		if !r.Contains(p) {
			t.Fatalf("sampled point %v outside %+v", p, r)
		}
	}
}

func TestSampleCoversRect(t *testing.T) {
	// Split a unit square into a 4x4 grid; after enough samples every cell
	// should be hit. Catches RNG wiring bugs (e.g. sampling only an edge).
	rng := rand.New(rand.NewSource(2))
	r := Square(0, 0, 1)
	var hits [4][4]bool
	for i := 0; i < 2000; i++ {
		p := r.Sample(rng)
		hits[int(p.X*4)][int(p.Y*4)] = true
	}
	for i := range hits {
		for j := range hits[i] {
			if !hits[i][j] {
				t.Fatalf("cell (%d,%d) never sampled", i, j)
			}
		}
	}
}

func TestValid(t *testing.T) {
	if (Rect{MinX: 1, MinY: 0, MaxX: 1, MaxY: 2}).Valid() {
		t.Fatal("degenerate rect should be invalid")
	}
	if (Rect{MinX: 2, MinY: 0, MaxX: 1, MaxY: 2}).Valid() {
		t.Fatal("inverted rect should be invalid")
	}
}
