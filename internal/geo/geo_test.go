package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	atlanta = Point{Lat: 33.7490, Lon: -84.3880}
	london  = Point{Lat: 51.5074, Lon: -0.1278}
	tokyo   = Point{Lat: 35.6762, Lon: 139.6503}
	sydney  = Point{Lat: -33.8688, Lon: 151.2093}
)

func TestDistanceKnownPairs(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64 // km, approximate
		tol  float64
	}{
		{"atlanta-london", atlanta, london, 6760, 50},
		{"atlanta-tokyo", atlanta, tokyo, 11040, 100},
		{"london-sydney", london, sydney, 16990, 100},
		{"same-point", atlanta, atlanta, 0, 1e-9},
		{"equator-degree", Point{0, 0}, Point{0, 1}, 111.19, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := DistanceKm(tt.a, tt.b)
			if math.Abs(got-tt.want) > tt.tol {
				t.Errorf("DistanceKm = %.1f, want %.1f +/- %.1f", got, tt.want, tt.tol)
			}
		})
	}
}

func randomPoint(r *rand.Rand) Point {
	return Point{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180}
}

func TestPropertyDistanceSymmetricNonNegBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randomPoint(r), randomPoint(r)
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		if d1 < 0 {
			t.Fatalf("negative distance %f", d1)
		}
		if math.Abs(d1-d2) > 1e-6 {
			t.Fatalf("asymmetric: %f vs %f", d1, d2)
		}
		if d1 > math.Pi*EarthRadiusKm+1e-6 {
			t.Fatalf("distance %f exceeds half circumference", d1)
		}
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b, c := randomPoint(r), randomPoint(r), randomPoint(r)
		ab, bc, ac := DistanceKm(a, b), DistanceKm(b, c), DistanceKm(a, c)
		if ac > ab+bc+1e-6 {
			t.Fatalf("triangle inequality violated: d(a,c)=%f > d(a,b)+d(b,c)=%f", ac, ab+bc)
		}
	}
}

func TestPointValid(t *testing.T) {
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, -180}, true},
		{Point{-90, 179.999}, true},
		{Point{91, 0}, false},
		{Point{0, 360}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, tt := range tests {
		if got := tt.p.Valid(); got != tt.want {
			t.Errorf("Valid(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestHilbertOrderValidation(t *testing.T) {
	for _, order := range []uint{0, 17} {
		if _, err := NewHilbert(order); err == nil {
			t.Errorf("NewHilbert(%d) succeeded, want error", order)
		}
	}
	if _, err := NewHilbert(8); err != nil {
		t.Errorf("NewHilbert(8): %v", err)
	}
}

func TestHilbertOrder1Curve(t *testing.T) {
	h, err := NewHilbert(1)
	if err != nil {
		t.Fatal(err)
	}
	// The order-1 Hilbert curve visits (0,0),(0,1),(1,1),(1,0).
	want := [][2]uint32{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for d, cell := range want {
		x, y, err := h.Cell(uint64(d))
		if err != nil {
			t.Fatal(err)
		}
		if x != cell[0] || y != cell[1] {
			t.Errorf("Cell(%d) = (%d,%d), want (%d,%d)", d, x, y, cell[0], cell[1])
		}
	}
}

func TestHilbertBijective(t *testing.T) {
	h, err := NewHilbert(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, h.side*h.side)
	for x := uint32(0); x < h.side; x++ {
		for y := uint32(0); y < h.side; y++ {
			d, err := h.Index(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if seen[d] {
				t.Fatalf("duplicate curve index %d at (%d,%d)", d, x, y)
			}
			seen[d] = true
			gx, gy, err := h.Cell(d)
			if err != nil {
				t.Fatal(err)
			}
			if gx != x || gy != y {
				t.Fatalf("Cell(Index(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
	if len(seen) != int(h.side)*int(h.side) {
		t.Fatalf("curve covered %d cells, want %d", len(seen), h.side*h.side)
	}
}

// Property: consecutive curve positions are grid-adjacent (Manhattan
// distance exactly 1) — the defining continuity property of the curve.
func TestPropertyHilbertContinuity(t *testing.T) {
	h, err := NewHilbert(6)
	if err != nil {
		t.Fatal(err)
	}
	max := uint64(h.side) * uint64(h.side)
	px, py, err := h.Cell(0)
	if err != nil {
		t.Fatal(err)
	}
	for d := uint64(1); d < max; d++ {
		x, y, err := h.Cell(d)
		if err != nil {
			t.Fatal(err)
		}
		dx := int64(x) - int64(px)
		dy := int64(y) - int64(py)
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy != 1 {
			t.Fatalf("curve jump at d=%d: (%d,%d) -> (%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestHilbertBounds(t *testing.T) {
	h, err := NewHilbert(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Index(h.side, 0); err == nil {
		t.Error("Index out of grid succeeded")
	}
	if _, _, err := h.Cell(uint64(h.side) * uint64(h.side)); err == nil {
		t.Error("Cell out of range succeeded")
	}
}

func TestPropertyHilbertRoundTrip(t *testing.T) {
	h, err := NewHilbert(10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y uint32) bool {
		x %= h.side
		y %= h.side
		d, err := h.Index(x, y)
		if err != nil {
			return false
		}
		gx, gy, err := h.Cell(d)
		return err == nil && gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Hilbert locality: points close on the plane should on average be closer on
// the curve than random pairs. This is the property clustering relies on.
func TestHilbertLocality(t *testing.T) {
	h, err := NewHilbert(8)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	var nearSum, farSum float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		x := r.Uint32() % (h.side - 1)
		y := r.Uint32() % (h.side - 1)
		d0, _ := h.Index(x, y)
		d1, _ := h.Index(x+1, y)
		nearSum += absDiff(d0, d1)

		x2 := r.Uint32() % h.side
		y2 := r.Uint32() % h.side
		d2, _ := h.Index(x2, y2)
		farSum += absDiff(d0, d2)
	}
	if nearSum >= farSum {
		t.Errorf("adjacent cells not closer on curve: near avg %.0f vs random avg %.0f",
			nearSum/trials, farSum/trials)
	}
}

func absDiff(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}

func TestPointIndex(t *testing.T) {
	h, err := NewHilbert(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.PointIndex(Point{Lat: 91, Lon: 0}); err == nil {
		t.Error("PointIndex accepted invalid point")
	}
	// Extreme corners must not panic or exceed the grid.
	for _, p := range []Point{{-90, -180}, {90, 179.999}, {0, 0}} {
		if _, err := h.PointIndex(p); err != nil {
			t.Errorf("PointIndex(%v): %v", p, err)
		}
	}
	// Nearby points should usually have closer indices than antipodal ones.
	a, _ := h.PointIndex(atlanta)
	b, _ := h.PointIndex(Point{Lat: atlanta.Lat + 0.5, Lon: atlanta.Lon + 0.5})
	c, _ := h.PointIndex(sydney)
	if absDiff(a, b) > absDiff(a, c) {
		t.Errorf("nearby point farther on curve than antipodal: |a-b|=%.0f |a-c|=%.0f",
			absDiff(a, b), absDiff(a, c))
	}
}
