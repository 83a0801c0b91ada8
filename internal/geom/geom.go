// Package geom provides the small amount of planar geometry the sensor-field
// models need: points, distances, and axis-aligned rectangular regions.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location in the plane, in meters.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Dist returns the Euclidean distance to q in meters.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared distance to q. It avoids the square root for
// range tests on hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns the square with the given lower-left corner and side.
func Square(minX, minY, side float64) Rect {
	return Rect{MinX: minX, MinY: minY, MaxX: minX + side, MaxY: minY + side}
}

// Width returns the rectangle's extent along X.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the rectangle's extent along Y.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Contains reports whether p lies inside the rectangle (boundaries
// inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p projected onto the rectangle: coordinates outside it are
// pulled to the nearest boundary. Mobility models use it to keep bounded
// walks inside the deployment area.
func (r Rect) Clamp(p Point) Point {
	if p.X < r.MinX {
		p.X = r.MinX
	} else if p.X > r.MaxX {
		p.X = r.MaxX
	}
	if p.Y < r.MinY {
		p.Y = r.MinY
	} else if p.Y > r.MaxY {
		p.Y = r.MaxY
	}
	return p
}

// Sample returns a point uniformly distributed over the rectangle.
func (r Rect) Sample(rng *rand.Rand) Point {
	return Point{
		X: r.MinX + rng.Float64()*r.Width(),
		Y: r.MinY + rng.Float64()*r.Height(),
	}
}

// Valid reports whether the rectangle is non-degenerate (positive extent in
// both dimensions).
func (r Rect) Valid() bool { return r.MaxX > r.MinX && r.MaxY > r.MinY }
