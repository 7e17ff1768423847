// Package planetlab generates the synthetic stand-in for the paper's
// PlanetLab measurements (Figures 12–14): a 400-host matrix of pairwise
// RTTs with the structure real PlanetLab data shows — regional clusters
// with millisecond-scale internal latencies, inter-continental distances
// of tens to hundreds of milliseconds, and a heavy tail of
// multi-second outliers from overloaded nodes.
//
// The paper measured ~80 000 of the 159 600 directed pairs and relied on
// latency symmetry; we generate the symmetric matrix directly.
package planetlab

import (
	"math"
	"math/rand"

	"wavnet/internal/sim"
)

// Region is a geographic cluster of hosts.
type Region struct {
	Name     string
	Lat, Lon float64 // degrees
	Weight   float64 // share of hosts placed here
}

// regions approximates the PlanetLab deployment of 2011: concentrated
// in North America and Europe, with Asia-Pacific and South-American
// sites.
var regions = []Region{
	{"us-east", 40.7, -74.0, 0.22},
	{"us-west", 37.4, -122.1, 0.16},
	{"europe-west", 48.9, 2.3, 0.20},
	{"europe-north", 59.3, 18.1, 0.08},
	{"asia-east", 35.7, 139.7, 0.12},
	{"asia-south", 22.3, 114.2, 0.08},
	{"oceania", -33.9, 151.2, 0.04},
	{"south-america", -23.5, -46.6, 0.05},
	{"canada", 43.7, -79.4, 0.05},
}

// Hosts is the size of the paper's PlanetLab matrix.
const Hosts = 400

// Latency model, in milliseconds.
const (
	// baseMS is the fixed per-path overhead.
	baseMS = 4
	// msPerKm converts great-circle distance to propagation delay:
	// 0.015 ms/km ≈ 2/3 c in fiber with typical route stretch.
	msPerKm = 0.015
	// intraRegionMS is the mean latency between hosts of one region.
	intraRegionMS = 12
	// overloadFrac is the fraction of hosts that are overloaded and add
	// large queueing delays to every path touching them, producing
	// Figure 12(a)'s multi-second outliers; overloadMaxMS bounds the
	// overload delay.
	overloadFrac  = 0.04
	overloadMaxMS = 5000
	// jitterFrac randomizes each pair by ±jitterFrac.
	jitterFrac = 0.2
)

// HostInfo describes one generated host.
type HostInfo struct {
	Index      int
	Region     string
	Lat, Lon   float64
	Overloaded bool
	// OverloadMS is this host's contribution to every path it is on.
	OverloadMS float64
}

// Dataset is the generated latency universe.
type Dataset struct {
	Hosts []HostInfo
	// RTT[i][j] is the symmetric round-trip latency between hosts.
	RTT [][]sim.Duration
}

// N returns the number of hosts.
func (d *Dataset) N() int { return len(d.Hosts) }

// Pairs invokes fn for every unordered host pair (i<j).
func (d *Dataset) Pairs(fn func(i, j int, rtt sim.Duration)) {
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			fn(i, j, d.RTT[i][j])
		}
	}
}

// Generate builds a dataset of the given number of hosts from a seed.
func Generate(seed int64, hosts int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}

	// Place hosts.
	for i := 0; i < hosts; i++ {
		r := pickRegion(rng, regions)
		// Scatter around the region center (~±3° ≈ metro+national span).
		h := HostInfo{
			Index:  i,
			Region: r.Name,
			Lat:    r.Lat + rng.NormFloat64()*1.5,
			Lon:    r.Lon + rng.NormFloat64()*2.0,
		}
		if rng.Float64() < overloadFrac {
			h.Overloaded = true
			// Log-uniform overload severity between 100 ms and the cap:
			// a saturated PlanetLab node delays every probe it answers.
			lo, hi := math.Log(100), math.Log(overloadMaxMS/2)
			h.OverloadMS = math.Exp(lo + rng.Float64()*(hi-lo))
		}
		d.Hosts = append(d.Hosts, h)
	}

	// Pairwise RTTs.
	n := hosts
	d.RTT = make([][]sim.Duration, n)
	for i := range d.RTT {
		d.RTT[i] = make([]sim.Duration, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := d.Hosts[i], d.Hosts[j]
			var ms float64
			if a.Region == b.Region {
				ms = baseMS + rng.ExpFloat64()*intraRegionMS
			} else {
				km := greatCircleKm(a.Lat, a.Lon, b.Lat, b.Lon)
				ms = baseMS + km*msPerKm
			}
			ms *= 1 + (rng.Float64()*2-1)*jitterFrac
			ms += a.OverloadMS + b.OverloadMS
			if ms < 0.2 {
				ms = 0.2
			}
			rtt := sim.Duration(ms * float64(sim.Millisecond))
			d.RTT[i][j] = rtt
			d.RTT[j][i] = rtt
		}
	}
	return d
}

func pickRegion(rng *rand.Rand, regions []Region) Region {
	var total float64
	for _, r := range regions {
		total += r.Weight
	}
	x := rng.Float64() * total
	for _, r := range regions {
		x -= r.Weight
		if x <= 0 {
			return r
		}
	}
	return regions[len(regions)-1]
}

// greatCircleKm computes the haversine distance.
func greatCircleKm(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(a))
}
