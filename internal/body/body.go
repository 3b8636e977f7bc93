// Package body defines the on-body node placement geometry of the Human
// Intranet design example (Fig. 1 of the paper): ten candidate locations on
// a standing adult, with 3-D anthropometric coordinates and a front/back
// facing tag used by the channel model's non-line-of-sight penalty.
//
// The paper derives its mean path-loss matrix from the NICTA two-hour
// on-body measurement campaign; that dataset is no longer distributed, so
// this package provides the geometric scaffold from which
// internal/channel synthesizes an equivalent matrix (see DESIGN.md §3,
// substitution 3).
package body

import "math"

// Facing classifies which side of the torso a location sits on; paths
// between opposite facings are shadowed by the body.
type Facing int

const (
	// Front faces forward (chest, hips, wrists in natural posture).
	Front Facing = iota
	// Back faces backward.
	Back
	// Side is lateral (upper arm) or omnidirectional (head).
	Side
)

func (f Facing) String() string {
	switch f {
	case Front:
		return "front"
	case Back:
		return "back"
	case Side:
		return "side"
	default:
		return "unknown"
	}
}

// Location is a candidate node placement.
type Location struct {
	// Index is the paper's location number (0–9).
	Index int
	// Name is the anatomical site.
	Name string
	// X is lateral (+ right), Y is sagittal (+ forward), Z is height, all
	// in meters for a 1.75 m adult.
	X, Y, Z float64
	Facing  Facing
}

// Paper location indices, §4.1: "chest, left and right hip, left and right
// ankle, left and right wrist, left upper arm, head, and back", with the
// constraint text fixing 0=chest, {1,2}=hips, {3,4}=feet, {5,6}=wrists,
// 7=upper arm (the "shoulder" node of the 100%-reliability solution),
// 8=head, 9=back.
const (
	Chest = iota
	RightHip
	LeftHip
	RightAnkle
	LeftAnkle
	RightWrist
	LeftWrist
	LeftUpperArm
	Head
	BackLoc
	// NumLocations is M in the paper.
	NumLocations
)

// Default returns the ten standard locations in paper index order.
func Default() []Location {
	return []Location{
		{Chest, "chest", 0.00, 0.10, 1.35, Front},
		{RightHip, "right-hip", 0.15, 0.05, 1.00, Front},
		{LeftHip, "left-hip", -0.15, 0.05, 1.00, Front},
		{RightAnkle, "right-ankle", 0.15, 0.05, 0.10, Front},
		{LeftAnkle, "left-ankle", -0.15, 0.05, 0.10, Front},
		{RightWrist, "right-wrist", 0.35, 0.05, 0.85, Front},
		{LeftWrist, "left-wrist", -0.35, 0.05, 0.85, Front},
		{LeftUpperArm, "left-upper-arm", -0.25, 0.00, 1.40, Side},
		{Head, "head", 0.00, 0.05, 1.70, Side},
		{BackLoc, "back", 0.00, -0.12, 1.35, Back},
	}
}

// Distance returns the Euclidean distance between two locations in meters.
func Distance(a, b Location) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return math.Sqrt(float64(dx*dx) + float64(dy*dy) + float64(dz*dz))
}

// Shadowed reports whether the straight path between two locations crosses
// the torso (front/back facings opposed), attracting the NLoS penalty in
// the channel model.
func Shadowed(a, b Location) bool {
	return (a.Facing == Front && b.Facing == Back) || (a.Facing == Back && b.Facing == Front)
}

// Names returns the location names in index order; handy for reports.
func Names(locs []Location) []string {
	out := make([]string, len(locs))
	for i, l := range locs {
		out[i] = l.Name
	}
	return out
}
