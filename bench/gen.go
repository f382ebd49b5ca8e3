package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/sensors"
)

// The harness owns its fleet and mobility generator: everything a
// server sees is derived here from the seed, and nothing here depends on
// the repository's simulator or chaos packages.

// devKind says how a device moves between state reports.
type devKind uint8

const (
	devStatic   devKind = iota // never moves
	devHopper                  // campus_routed: alternates campus on every report
	devCommuter                // city_mobile: walks home -> work -> home
	devFlapper                 // city_mobile: alternates across the shard boundary
)

// devSpec is one generated device.
type devSpec struct {
	ID      string
	Home    geo.Point // registration position
	Alt     geo.Point // hop target, workplace, or far side of the boundary
	Battery float64
	Sensors []sensors.Type
	Kind    devKind
	Phase   int // which virtual second (mod reportEvery) a city device reports in
}

// taskSpec is one generated sensing task. Offset staggers its start
// inside one sampling period, so every server tick sees the same load.
type taskSpec struct {
	Center  geo.Point
	RadiusM float64
	Offset  time.Duration
}

// inputs is everything one run feeds the program.
type inputs struct {
	Regions []core.Region
	Devices []devSpec
	Tasks   []taskSpec
	Density int
	Period  time.Duration
}

// origin anchors generated coordinates; any mid-latitude land point
// would do.
var origin = geo.CSDepartment

// noBarometerEvery: one device in this many carries no barometer, so
// "every selected device has the sensor" is a check that can fail.
const noBarometerEvery = 10

func sensorsFor(i int) []sensors.Type {
	if i%noBarometerEvery == noBarometerEvery-1 {
		return []sensors.Type{sensors.Accelerometer}
	}
	return []sensors.Type{sensors.Barometer, sensors.Accelerometer}
}

// Campus geometry (metres).
const (
	campusSquareM     = 3000 // devices scatter over a square this wide
	campusTaskRadiusM = 1000
	campusTaskSpreadM = 1000 // task centres fall in a central square this wide
	campusRegionM     = 3000 // enrolled region radius (routed)
	campusGapM        = 7000 // distance between the two campuses (routed)
	// Hoppers park here, north of a campus centre: inside the region,
	// outside every task area (which reach at most spread/2+radius from
	// the centre), so a device in mid-re-home never holds a dispatch.
	campusHopperNorthM = 2500
)

// genCampus generates the socket workloads' inputs. With routed set the
// fleet and the tasks split evenly over two campuses, each an enrolled
// region, and the last sz.Hoppers devices hop between them.
func genCampus(seed int64, sz sizes, routed bool) inputs {
	rng := rand.New(rand.NewSource(seed))
	centers := []geo.Point{origin}
	in := inputs{Density: sz.Density, Period: sz.Period}
	if routed {
		centers = append(centers, geo.Offset(origin, 0, campusGapM))
		for i, c := range centers {
			in.Regions = append(in.Regions, core.Region{
				Name: []string{"west", "east"}[i],
				Area: geo.Circle{Center: c, RadiusM: campusRegionM},
			})
		}
	}
	static := sz.Devices - sz.Hoppers
	for i := 0; i < sz.Devices; i++ {
		c := centers[i%len(centers)]
		d := devSpec{
			ID:      fmt.Sprintf("dev-%05d", i),
			Battery: 50 + float64(rng.Intn(50)),
			Sensors: sensorsFor(i),
		}
		if i < static {
			d.Home = geo.Offset(c, (rng.Float64()-0.5)*campusSquareM, (rng.Float64()-0.5)*campusSquareM)
		} else {
			other := centers[(i+1)%len(centers)]
			jitter := (rng.Float64() - 0.5) * 200
			d.Kind = devHopper
			d.Home = geo.Offset(c, campusHopperNorthM, jitter)
			d.Alt = geo.Offset(other, campusHopperNorthM, jitter)
		}
		in.Devices = append(in.Devices, d)
	}
	for k := 0; k < sz.Tasks; k++ {
		c := centers[k%len(centers)]
		in.Tasks = append(in.Tasks, taskSpec{
			Center: geo.Offset(c,
				(rng.Float64()-0.5)*campusTaskSpreadM, (rng.Float64()-0.5)*campusTaskSpreadM),
			RadiusM: campusTaskRadiusM,
			Offset:  time.Duration(k) * sz.Period / time.Duration(sz.Tasks),
		})
	}
	return in
}

// City geometry (metres): two circular regions whose edges overlap in a
// thin lens; ShardFor gives the lens to west, so west's eastern edge is
// the shard boundary flappers cross.
const (
	cityRegionM    = 10000
	cityCentersM   = 19000
	cityFleetDiscM = 9000 // devices live within this radius of their region's centre
	cityCommuteM   = 3000 // same-region commute length bound
	cityFlapM      = 100  // how far either side of the boundary a flapper lands
)

// cityFleetMix is the share of each kind in city_mobile.
const (
	cityCommuterShare = 0.85
	cityFlapperShare  = 0.03
	cityCrossShare    = 0.10 // commuters whose workplace is in the other region
)

func discPoint(rng *rand.Rand, c geo.Point, radius float64) geo.Point {
	r := radius * math.Sqrt(rng.Float64())
	th := 2 * math.Pi * rng.Float64()
	return geo.Offset(c, r*math.Sin(th), r*math.Cos(th))
}

// genCity generates the in-process workloads' inputs: sz.Devices
// devices over two regions and sz.Tasks tasks whose areas hold
// sz.AreaShare of the fleet each. With mobile set, most devices commute
// and a few flap across the shard boundary; otherwise all are static.
func genCity(seed int64, sz sizes, mobile bool) inputs {
	rng := rand.New(rand.NewSource(seed))
	west := origin
	east := geo.Offset(origin, 0, cityCentersM)
	centers := []geo.Point{west, east}
	in := inputs{
		Density: sz.Density,
		Period:  sz.Period,
		Regions: []core.Region{
			{Name: "west", Area: geo.Circle{Center: west, RadiusM: cityRegionM}},
			{Name: "east", Area: geo.Circle{Center: east, RadiusM: cityRegionM}},
		},
	}
	flappers, commuters := 0, 0
	if mobile {
		flappers = int(cityFlapperShare * float64(sz.Devices))
		commuters = int(cityCommuterShare * float64(sz.Devices))
	}
	for i := 0; i < sz.Devices; i++ {
		side := i % 2
		d := devSpec{
			ID:      fmt.Sprintf("dev-%06d", i),
			Battery: 50 + float64(rng.Intn(50)),
			Sensors: sensorsFor(i),
		}
		if mobile {
			d.Phase = i % sz.ReportEvery
		}
		switch {
		case i < flappers:
			// A point on west's edge within 15 degrees of the axis joining
			// the centres: out to 18.9 degrees the far side of it still lies
			// inside east.
			th := (rng.Float64() - 0.5) * math.Pi / 6
			at := func(r float64) geo.Point { return geo.Offset(west, r*math.Sin(th), r*math.Cos(th)) }
			d.Kind = devFlapper
			d.Home, d.Alt = at(cityRegionM-cityFlapM), at(cityRegionM+cityFlapM)
			d.Phase = -1 // reports every virtual second
		case i < flappers+commuters:
			d.Kind = devCommuter
			d.Home = discPoint(rng, centers[side], cityFleetDiscM)
			if rng.Float64() < cityCrossShare {
				d.Alt = discPoint(rng, centers[1-side], cityFleetDiscM)
			} else {
				d.Alt = discPoint(rng, d.Home, cityCommuteM)
			}
		default:
			d.Home = discPoint(rng, centers[side], cityFleetDiscM)
		}
		in.Devices = append(in.Devices, d)
	}
	// A disc holding AreaShare of the whole fleet holds twice that share
	// of its own region's half.
	radius := cityFleetDiscM * math.Sqrt(2*sz.AreaShare)
	for k := 0; k < sz.Tasks; k++ {
		// The whole area stays inside the populated disc, so every task
		// sees the same expected number of candidates.
		in.Tasks = append(in.Tasks, taskSpec{
			Center:  discPoint(rng, centers[k%2], cityFleetDiscM-radius),
			RadiusM: radius,
		})
	}
	return in
}

// positionAt is where a mobile device is at virtual second t. Commuters
// walk home -> work -> home once per commutePeriod; hoppers and flappers
// alternate between their two spots on every report.
func (d *devSpec) positionAt(t int) geo.Point {
	switch d.Kind {
	case devCommuter:
		const commutePeriod = 120
		ph := float64(t%commutePeriod) / commutePeriod
		f := 2 * ph
		if ph > 0.5 {
			f = 2 - 2*ph
		}
		return geo.Point{
			Lat: d.Home.Lat + (d.Alt.Lat-d.Home.Lat)*f,
			Lon: d.Home.Lon + (d.Alt.Lon-d.Home.Lon)*f,
		}
	case devHopper, devFlapper:
		if t%2 == 1 {
			return d.Alt
		}
		return d.Home
	default:
		return d.Home
	}
}

// digest fingerprints the generated inputs, for the determinism test
// and for the run record.
func (in *inputs) digest() string {
	h := sha256.New()
	f := func(v float64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, r := range in.Regions {
		h.Write([]byte(r.Name))
		f(r.Area.Center.Lat)
		f(r.Area.Center.Lon)
		f(r.Area.RadiusM)
	}
	for i := range in.Devices {
		d := &in.Devices[i]
		h.Write([]byte(d.ID))
		f(d.Home.Lat)
		f(d.Home.Lon)
		f(d.Alt.Lat)
		f(d.Alt.Lon)
		f(d.Battery)
		h.Write([]byte{byte(d.Kind), byte(len(d.Sensors)), byte(d.Phase)})
	}
	for _, t := range in.Tasks {
		f(t.Center.Lat)
		f(t.Center.Lon)
		f(t.RadiusM)
		f(float64(t.Offset))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
