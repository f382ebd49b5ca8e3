// Package cluster is the Sense-Aid multi-node control plane: a thin
// router tier that owns device→region routing while per-region worker
// nodes own all scheduling state. Workers enroll over the wire
// protocol's node role; client connections (devices, application
// servers) terminate at the router and are relayed to the worker whose
// region covers them. The router carries no campaign state of its own —
// it can restart at any time and rebuild its world from the next round
// of enrollments and reconnects. DESIGN.md §14 carries the topology and
// ordering arguments.
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"senseaid/internal/geo"
	"senseaid/internal/wire"
)

// nodeEntry is one enrolled node as the registry sees it: the identity
// it announced and the link it enrolled over, which carries its control
// stream and, for a primary, every client session routed to it.
type nodeEntry struct {
	id   string
	role string // wire.NodeRolePrimary or NodeRoleStandby
	link *link
}

// regionEntry is one region's control-plane state: its coverage area
// and the primary/standby pair serving it.
type regionEntry struct {
	name    string
	area    geo.Circle
	primary *nodeEntry
	standby *nodeEntry
}

// registry maps regions to nodes. Enrollment is last-writer-wins per
// (region, role): a node that redials after a restart replaces its own
// stale entry, and a promoted standby's fresh primary enrollment
// replaces the dead one's.
type registry struct {
	mu      sync.Mutex
	regions map[string]*regionEntry
}

func newRegistry() *registry {
	return &registry{regions: make(map[string]*regionEntry)}
}

// enroll records one NodeHello. The announced area updates the region's
// coverage (primary wins over standby on disagreement). A new primary
// returns the entry it replaces, whose sessions the caller sheds.
func (g *registry) enroll(h wire.NodeHello, l *link) (replaced *nodeEntry, err error) {
	if h.Region == "" || h.NodeID == "" {
		return nil, fmt.Errorf("cluster: enrollment needs a node id and a region")
	}
	area := geo.Circle{Center: geo.Point{Lat: h.Lat, Lon: h.Lon}, RadiusM: h.RadiusM}
	if !area.Center.Valid() || area.RadiusM <= 0 {
		return nil, fmt.Errorf("cluster: enrollment for %s has no coverage area", h.Region)
	}
	if h.NodeRole != wire.NodeRolePrimary && h.NodeRole != wire.NodeRoleStandby {
		return nil, fmt.Errorf("cluster: unknown node role %q", h.NodeRole)
	}
	n := &nodeEntry{id: h.NodeID, role: h.NodeRole, link: l}
	g.mu.Lock()
	defer g.mu.Unlock()
	re, ok := g.regions[h.Region]
	if !ok {
		re = &regionEntry{name: h.Region}
		g.regions[h.Region] = re
	}
	if h.NodeRole == wire.NodeRolePrimary {
		replaced = re.primary
		re.primary = n
		re.area = area
		return replaced, nil
	}
	re.standby = n
	if re.primary == nil {
		re.area = area
	}
	return nil, nil
}

// drop removes whatever entries a dead link owned. It returns, per
// region, the standby to promote when the link was that region's
// primary and a standby is enrolled.
func (g *registry) drop(l *link) (promote []promotion) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, re := range g.regions {
		if re.primary != nil && re.primary.link == l {
			if re.standby != nil {
				promote = append(promote, promotion{region: name, standby: re.standby})
			}
			re.primary = nil
		}
		if re.standby != nil && re.standby.link == l {
			re.standby = nil
		}
	}
	return promote
}

// promotion pairs a region with the standby taking it over.
type promotion struct {
	region  string
	standby *nodeEntry
}

// primaryForPoint routes a position to the primary of the first region
// (in name order, for determinism) whose area contains it.
func (g *registry) primaryForPoint(p geo.Point) (*nodeEntry, string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, name := range g.sortedNamesLocked() {
		re := g.regions[name]
		if re.area.Contains(p) {
			if re.primary == nil {
				return nil, "", fmt.Errorf("cluster: region %s has no primary", name)
			}
			return re.primary, name, nil
		}
	}
	return nil, "", fmt.Errorf("cluster: no region covers %s", p)
}

// regionForPoint names the region covering a position, if any.
func (g *registry) regionForPoint(p geo.Point) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, name := range g.sortedNamesLocked() {
		if g.regions[name].area.Contains(p) {
			return name, true
		}
	}
	return "", false
}

// primaryForRegion resolves a region name (a task-ID prefix) to its
// primary.
func (g *registry) primaryForRegion(name string) (*nodeEntry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	re, ok := g.regions[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown region %q", name)
	}
	if re.primary == nil {
		return nil, fmt.Errorf("cluster: region %s has no primary", name)
	}
	return re.primary, nil
}

// regionPrimary pairs a region name with its primary node.
type regionPrimary struct {
	region string
	node   *nodeEntry
}

// primaries snapshots every region's primary in name order — the
// subscription fan-out path (an unscoped subscribe_agg must reach every
// region's aggregation tier).
func (g *registry) primaries() []regionPrimary {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []regionPrimary
	for _, name := range g.sortedNamesLocked() {
		if re := g.regions[name]; re.primary != nil {
			out = append(out, regionPrimary{region: name, node: re.primary})
		}
	}
	return out
}

// nodeCount counts enrolled nodes (the senseaid_router_nodes gauge).
func (g *registry) nodeCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, re := range g.regions {
		if re.primary != nil {
			n++
		}
		if re.standby != nil {
			n++
		}
	}
	return n
}

func (g *registry) sortedNamesLocked() []string {
	names := make([]string, 0, len(g.regions))
	for name := range g.regions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
