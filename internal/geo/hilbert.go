package geo

import "fmt"

// Hilbert maps 2-D grid cells to positions along a Hilbert space-filling
// curve of a given order. Cells that are close on the plane tend to be close
// on the curve, which the paper (Section 5.2, via ref [39]) uses to group
// geographically close content servers under the same supernode.
type Hilbert struct {
	order uint // the grid is 2^order x 2^order
	side  uint32
}

// NewHilbert returns a curve over a 2^order x 2^order grid. Order must be in
// [1, 16] so indices fit comfortably in uint64.
func NewHilbert(order uint) (*Hilbert, error) {
	if order < 1 || order > 16 {
		return nil, fmt.Errorf("geo: hilbert order %d out of range [1,16]", order)
	}
	return &Hilbert{order: order, side: 1 << order}, nil
}

// Index returns the distance along the curve of grid cell (x, y).
// Coordinates outside the grid are an error.
func (h *Hilbert) Index(x, y uint32) (uint64, error) {
	if x >= h.side || y >= h.side {
		return 0, fmt.Errorf("geo: cell (%d,%d) outside %dx%d grid", x, y, h.side, h.side)
	}
	var d uint64
	for s := h.side / 2; s > 0; s /= 2 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = rot(s, x, y, rx, ry)
	}
	return d, nil
}

// Cell is the inverse of Index: it returns the grid cell at curve distance d.
func (h *Hilbert) Cell(d uint64) (x, y uint32, err error) {
	max := uint64(h.side) * uint64(h.side)
	if d >= max {
		return 0, 0, fmt.Errorf("geo: curve distance %d outside [0,%d)", d, max)
	}
	t := d
	for s := uint32(1); s < h.side; s *= 2 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = rot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y, nil
}

// rot rotates/flips a quadrant so the curve stays continuous.
func rot(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// PointIndex projects a geographic point onto the curve by binning latitude
// and longitude uniformly over the grid. It is the convenience used for
// supernode clustering.
func (h *Hilbert) PointIndex(p Point) (uint64, error) {
	if !p.Valid() {
		return 0, fmt.Errorf("geo: invalid point %v", p)
	}
	// Normalize to [0,1).
	fx := (p.Lon + 180) / 360
	fy := (p.Lat + 90) / 180
	x := uint32(fx * float64(h.side))
	y := uint32(fy * float64(h.side))
	if x >= h.side {
		x = h.side - 1
	}
	if y >= h.side {
		y = h.side - 1
	}
	return h.Index(x, y)
}
