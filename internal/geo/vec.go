// Package geo provides the 2-D geometry substrate of the worksite simulator:
// vectors, poses, the terrain grid with tree/rock occlusions, line-of-sight
// ray casting, and grid path finding.
//
// The forestry worksite of the paper's Fig. 1 is modelled as a rectangular
// grid of square cells. Machines and workers move in continuous coordinates
// over the grid; occlusion queries (the core of the Fig. 2 drone point-of-view
// experiment) are resolved by tracing grid cells along the sight line.
package geo

import "math"

// Vec is a 2-D vector in metres (world coordinates).
type Vec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// V is shorthand for constructing a Vec.
func V(x, y float64) Vec { return Vec{X: x, Y: y} }

// Add returns v + o.
func (v Vec) Add(o Vec) Vec { return Vec{X: v.X + o.X, Y: v.Y + o.Y} }

// Sub returns v - o.
func (v Vec) Sub(o Vec) Vec { return Vec{X: v.X - o.X, Y: v.Y - o.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{X: v.X * s, Y: v.Y * s} }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and o.
func (v Vec) Dist(o Vec) float64 { return v.Sub(o).Len() }

// Norm returns the unit vector in the direction of v, or the zero vector if v
// has zero length.
func (v Vec) Norm() Vec {
	l := v.Len()
	if l == 0 {
		return Vec{}
	}
	return v.Scale(1 / l)
}

// Angle returns the heading of v in radians, in (-pi, pi].
func (v Vec) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Lerp linearly interpolates from v to o by t in [0,1].
func (v Vec) Lerp(o Vec, t float64) Vec {
	return Vec{X: v.X + (o.X-v.X)*t, Y: v.Y + (o.Y-v.Y)*t}
}

// Pose is a position plus heading.
type Pose struct {
	Pos     Vec     `json:"pos"`
	Heading float64 `json:"headingRad"`
}

// Forward returns the unit vector in the pose's heading direction.
func (p Pose) Forward() Vec {
	return Vec{X: math.Cos(p.Heading), Y: math.Sin(p.Heading)}
}

// Cell is an integer grid coordinate.
type Cell struct {
	Col int `json:"col"`
	Row int `json:"row"`
}

// C is shorthand for constructing a Cell.
func C(col, row int) Cell { return Cell{Col: col, Row: row} }
