package geo

import (
	"math"
	"math/rand"
	"testing"
)

// bandM returns how far the undecided band of a prepared circle reaches
// beyond its boundary, in metres (zero when the planar test is off).
func bandM(p *PreparedCircle) float64 {
	if p.innerSq < 0 {
		return 0
	}
	return math.Sqrt(p.outerSq)*metersPerDegLat - p.circle.RadiusM
}

// pointAt returns the point dist metres from c's centre on the given
// bearing, by the spherical direct formula — exact where Offset's flat
// earth is not, so a test can aim at the boundary of a large or polar
// circle. The longitude is wrapped into [-180, 180].
func pointAt(c Circle, dist, bearing float64) Point {
	const degToRad = math.Pi / 180
	lat1 := c.Center.Lat * degToRad
	ang := dist / EarthRadiusM
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(bearing))
	dLon := math.Atan2(math.Sin(bearing)*math.Sin(ang)*math.Cos(lat1), math.Cos(ang)-math.Sin(lat1)*math.Sin(lat2))
	lon := c.Center.Lon + dLon/degToRad
	if lon > 180 {
		lon -= 360
	} else if lon < -180 {
		lon += 360
	}
	return Point{Lat: lat2 / degToRad, Lon: lon}
}

// checkPrepared fails when the prepared verdict differs from
// Circle.Contains for the point.
func checkPrepared(t *testing.T, c Circle, p *PreparedCircle, pt Point) {
	t.Helper()
	if got, want := p.Contains(pt), c.Contains(pt); got != want {
		t.Fatalf("%v: prepared says %v, Contains says %v for %v (distance %.6f m, band %.6f m, planar %v)",
			c, got, want, pt, DistanceM(c.Center, pt), bandM(p), p.innerSq >= 0)
	}
}

// probe checks n points against the circle: half within two band widths
// of the boundary (at least a few millimetres, so the band's own edges
// are straddled even where it is microscopic), the rest from the centre
// out to three radii.
func probe(t *testing.T, rng *rand.Rand, c Circle, n int) {
	t.Helper()
	p := c.Prepare()
	near := math.Max(2*bandM(&p), 0.005)
	for i := 0; i < n; i++ {
		dist := rng.Float64() * 3 * c.RadiusM
		if i%2 == 0 {
			dist = c.RadiusM + (rng.Float64()*2-1)*near
		}
		checkPrepared(t, c, &p, pointAt(c, math.Max(dist, 0), rng.Float64()*2*math.Pi))
	}
}

// TestPreparedContainsMatchesCircle is the margin's property test: over
// circles from 10 m to past the planar cap, at every latitude and
// longitude, the prepared verdict is Circle.Contains's.
func TestPreparedContainsMatchesCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	planar := 0
	for trial := 0; trial < 4000; trial++ {
		c := Circle{
			Center:  Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180},
			RadiusM: 10 * math.Pow(20_000, rng.Float64()), // log-uniform 10 m .. 200 km
		}
		if p := c.Prepare(); p.innerSq >= 0 {
			planar++
		}
		probe(t, rng, c, 200)
	}
	if planar < 2000 {
		t.Fatalf("only %d of 4000 circles used the planar test; the property was barely exercised", planar)
	}
}

// TestPreparedEnvelope pins which circles are decided planar and which
// always take the haversine, and checks both kinds around their edges.
func TestPreparedEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name   string
		c      Circle
		planar bool
	}{
		{"campus", Circle{CSDepartment, 1000}, true},
		{"equator", Circle{Point{0, 0}, 50}, true},
		{"city at 60N", Circle{Point{60, 25}, 50_000}, true},
		{"at the latitude limit", Circle{Point{84.9, 10}, 5000}, true},
		{"at the planar cap", Circle{Point{30, 30}, maxPlanarRadiusM}, true},
		{"across the antimeridian", Circle{Point{-17, 179.99}, 20_000}, true},
		{"past the latitude limit", Circle{Point{84.99, 10}, 5000}, false},
		{"polar", Circle{Point{89.5, 0}, 100}, false},
		{"south polar", Circle{Point{-88, 100}, 30_000}, false},
		{"past the planar cap", Circle{Point{30, 30}, maxPlanarRadiusM + 1}, false},
		{"zero radius", Circle{Point{10, 10}, 0}, false},
		{"negative radius", Circle{Point{10, 10}, -5}, false},
		{"NaN radius", Circle{Point{10, 10}, math.NaN()}, false},
		{"infinite radius", Circle{Point{10, 10}, math.Inf(1)}, false},
		{"invalid centre", Circle{Point{math.NaN(), 0}, 100}, false},
		{"centre off the map", Circle{Point{95, 0}, 100}, false},
	}
	for _, tc := range cases {
		p := tc.c.Prepare()
		if got := p.innerSq >= 0; got != tc.planar {
			t.Errorf("%s: planar = %v, want %v", tc.name, got, tc.planar)
		}
		if tc.c.Center.Valid() && tc.c.RadiusM > 0 && !math.IsInf(tc.c.RadiusM, 0) {
			probe(t, rng, tc.c, 2000)
		}
		// Hostile points get Contains's verdict too, whatever it is.
		for _, pt := range []Point{
			{math.NaN(), 0}, {0, math.NaN()}, {math.Inf(1), 0}, {0, math.Inf(-1)},
			{tc.c.Center.Lat, tc.c.Center.Lon + 360}, {tc.c.Center.Lat, tc.c.Center.Lon - 360},
			{tc.c.Center.Lat + 360, tc.c.Center.Lon}, {180 - tc.c.Center.Lat, tc.c.Center.Lon + 180},
			{-tc.c.Center.Lat, tc.c.Center.Lon}, {tc.c.Center.Lat, -tc.c.Center.Lon},
		} {
			checkPrepared(t, tc.c, &p, pt)
		}
	}
}

// TestPreparedBandIsThin guards the point of the exercise: at the scales
// tasks use, all but a sliver of the plane is decided without
// trigonometry.
func TestPreparedBandIsThin(t *testing.T) {
	for _, tc := range []struct {
		c    Circle
		maxM float64
	}{
		{Circle{CSDepartment, 1000}, 0.5},
		{Circle{Point{0, 100}, 5000}, 0.01},
		{Circle{Point{60, 25}, 5000}, 10},
	} {
		p := tc.c.Prepare()
		if b := bandM(&p); b <= 0 || b > tc.maxM {
			t.Errorf("%v: band reaches %.4f m past the boundary, want (0, %v]", tc.c, b, tc.maxM)
		}
	}
}

// FuzzPreparedContains: for any circle and any point the prepared
// verdict equals Circle.Contains. The fuzzer's point is used as given
// and also re-aimed at the circle's boundary, so half the checks land
// within two band widths of it.
func FuzzPreparedContains(f *testing.F) {
	f.Add(40.4274, -86.9169, 1000.0, 40.43, -86.91, 0.3)
	f.Add(0.0, 0.0, 50.0, 0.0004, 0.0001, -1.0)
	f.Add(84.9, 10.0, 5000.0, 84.95, 10.2, 0.9)
	f.Add(-17.0, 179.99, 20_000.0, -17.1, -179.95, 0.0)
	f.Add(89.5, 0.0, 100.0, 89.5, 180.0, 0.5)
	f.Add(30.0, 30.0, 100_000.0, 30.9, 30.0, 1.0)
	f.Add(10.0, 10.0, math.Inf(1), 370.0, -500.0, 2.0)
	f.Fuzz(func(t *testing.T, lat, lon, radius, pLat, pLon, aim float64) {
		c := Circle{Center: Point{Lat: lat, Lon: lon}, RadiusM: radius}
		p := c.Prepare()
		checkPrepared(t, c, &p, Point{Lat: pLat, Lon: pLon})
		if !c.Center.Valid() || !(radius > 0) || math.IsInf(radius, 0) || math.IsNaN(aim) || math.IsInf(aim, 0) {
			return
		}
		// aim in [-1, 1] sweeps two band widths either side of the
		// boundary; the bearing comes from the fuzzed point.
		aim = math.Mod(aim, 1)
		near := math.Max(2*bandM(&p), 0.005)
		bearing := math.Atan2(pLon-lon, pLat-lat)
		if math.IsNaN(bearing) {
			bearing = 0
		}
		dist := math.Min(math.Max(radius+aim*near, 0), math.Pi*EarthRadiusM)
		checkPrepared(t, c, &p, pointAt(c, dist, bearing))
	})
}
