package geo

import "math"

// maxPlanarRadiusM is the largest circle PreparedCircle decides with the
// planar pre-test; larger ones always take the exact haversine.
const maxPlanarRadiusM = 100_000

// PreparedCircle answers Circle.Contains for many points against one
// circle — the selector tests every record in a task area's covering
// cells — without paying the haversine's sin/cos/asin for points that
// are clearly inside or clearly outside. Prepare computes, once, the
// cosine of the centre latitude and two squared planar radii; Contains
// then needs two subtractions, three multiplications and two compares
// for every point that is not within a thin band around the boundary.
// Points inside the band, and every point of a circle outside the
// envelope below, are decided by the exact DistanceM <= RadiusM, so the
// verdict equals Circle.Contains for every input.
//
// # The margin
//
// Work in radians: rho = RadiusM/EarthRadiusM, a and b the latitude and
// longitude differences between the point and the centre, c1 and c2 the
// cosines of the centre's and the point's latitude. The haversine is
//
//	h = sin^2(a/2) + c1*c2*sin^2(b/2),   theta = 2*asin(sqrt(h))
//
// and the planar (equirectangular) stand-in is q = (a^2 + c1^2*b^2)/4.
// Three facts bound |h - q| <= delta*q whenever |a| <= rho and
// |b| <= B := 2*rho/cm, with cm = cos(|lat0|+rho), sm = sin(|lat0|+rho):
//
//	0 <= u^2 - sin^2(u) <= u^4/3       (from sin u >= u - u^3/6)
//	|c2 - c1| <= |a|*sm                (mean value; |lat| <= |lat0|+rho)
//	c2/c1 <= 1 + rho*sm/c1
//
// which give, term by term,
//
//	delta = rho^2/12 + (1 + rho*sm/c1)*B^2/12 + rho*sm/c1.
//
// The last term dominates: the planar model freezes the longitude scale
// at the centre latitude, and the true scale drifts by tan(lat)*a across
// the circle. Further asin^2(x) <= x^2*(1 + x^2/2) for x <= 0.1, so
// (theta/2)^2 <= h*(1 + eta) with eta = rho^2/4.
//
// "Inside": if 4q <= rho^2*(1 - delta - eta - eps) then a^2 <= rho^2 and
// c1^2*b^2 <= rho^2 (so the bounds on a and b hold) and
// (theta/2)^2 <= q*(1+delta)*(1+eta) <= rho^2/4, i.e. theta <= rho.
//
// "Outside", by contrapositive: a point with theta <= rho and a valid
// latitude has |a| <= theta <= rho (a meridian arc is never longer than
// the great circle) and sin(|b|/2) <= sin(rho/2)/sqrt(c1*c2) <= rho/(2*cm),
// hence |b| <= B; so q*(1-delta) <= h <= rho^2/4 and
// 4q <= rho^2/(1-delta) <= rho^2*(1 + 2*delta) for delta <= 1/2. A point
// with 4q > rho^2*(1 + 2*delta + eps) is therefore outside — provided b
// is the true longitude difference, which the raw subtraction is exactly
// when it lies in [-180, 180] degrees; Contains checks that (and the
// latitude range) before trusting an "outside" verdict, so circles that
// cross the antimeridian and garbage coordinates fall through to the
// exact test instead of being misjudged.
//
// eps = 1e-9 is a floor that keeps the band wider than float64 rounding
// in either formula (about 1e-15 relative) where delta itself vanishes:
// small circles near the equator.
//
// In metres the band reaches about RadiusM*delta outside the boundary
// and half that inside: 13 cm for a 1 km circle at 40 degrees latitude,
// 7 m for 5 km at 60 degrees, and kilometres only for circles of 100 km
// at high latitude. TestPreparedContainsMatchesCircle and
// FuzzPreparedContains enforce the equality, with half their points
// drawn inside two band widths of the boundary.
//
// # The envelope
//
// The planar test is used only when the centre is valid, 0 < RadiusM <=
// maxPlanarRadiusM, the circle stays within MaxGridLat of the equator
// (the same latitude limit Grid.Cover applies; cm is then at least
// cos(85 degrees) and B at most 0.37 rad) and delta <= 1/2. Outside it
// both squared radii are set so that no point is ever decided planar.
type PreparedCircle struct {
	circle Circle
	cosLat float64
	// innerSq and outerSq are squared planar distances in degrees of
	// latitude: at or below innerSq a point is inside, above outerSq it
	// is outside, in between the haversine decides.
	innerSq, outerSq float64
}

// preparedEps is the relative floor on the boundary band (see the type
// comment).
const preparedEps = 1e-9

// Prepare returns the circle's prepared form. It costs three
// trigonometric calls; a request prepares its area once.
func (c Circle) Prepare() PreparedCircle {
	p := PreparedCircle{circle: c, innerSq: -1, outerSq: math.Inf(1)}
	if !c.Center.Valid() || !(c.RadiusM > 0) || c.RadiusM > maxPlanarRadiusM {
		return p
	}
	const degToRad = math.Pi / 180
	rho := c.RadiusM / EarthRadiusM
	edge := math.Abs(c.Center.Lat)*degToRad + rho
	if edge > MaxGridLat*degToRad {
		return p
	}
	c1 := math.Cos(c.Center.Lat * degToRad)
	cm, sm := math.Cos(edge), math.Sin(edge)
	drift := rho * sm / c1
	bMax := 2 * rho / cm
	delta := rho*rho/12 + (1+drift)*bMax*bMax/12 + drift
	if delta > 0.5 {
		return p
	}
	eta := rho * rho / 4
	rDeg := c.RadiusM / metersPerDegLat
	p.cosLat = c1
	p.innerSq = rDeg * rDeg * (1 - delta - eta - preparedEps)
	p.outerSq = rDeg * rDeg * (1 + 2*delta + preparedEps)
	return p
}

// Circle returns the circle this was prepared from.
func (p *PreparedCircle) Circle() Circle { return p.circle }

// Contains reports whether pt lies inside or on the circle. The verdict
// is Circle.Contains's for every input, including NaN and out-of-range
// coordinates (which compare false here and reach the exact test).
func (p *PreparedCircle) Contains(pt Point) bool {
	dLat := pt.Lat - p.circle.Center.Lat
	dLon := pt.Lon - p.circle.Center.Lon
	x := dLon * p.cosLat
	s := dLat*dLat + x*x
	if s <= p.innerSq {
		return true
	}
	if s > p.outerSq && dLon >= -180 && dLon <= 180 && pt.Lat >= -90 && pt.Lat <= 90 {
		return false
	}
	return DistanceM(p.circle.Center, pt) <= p.circle.RadiusM
}
