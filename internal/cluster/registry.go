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
// and coverage it announced, the trunk to reach it on and, for a
// primary, the link its client sessions ride (dialed on first use).
type nodeEntry struct {
	id    string
	role  string // wire.NodeRolePrimary or NodeRoleStandby
	addr  string // the address the link dials
	trunk *trunk

	linkMu  sync.Mutex
	link    *link
	retired bool // no longer its region's primary: dial no link for it
}

// retire is called once n stops being its region's primary. A successor
// at the same address — the same worker enrolling again after its trunk
// dropped — inherits the link and every session on it; otherwise the
// link closes, and its clients with it, so they redial into whatever
// now serves the region.
func (n *nodeEntry) retire(next *nodeEntry) {
	n.linkMu.Lock()
	l := n.link
	n.link, n.retired = nil, true
	n.linkMu.Unlock()
	if l == nil {
		return
	}
	if next != nil && next.addr == n.addr {
		next.linkMu.Lock()
		if next.link == nil {
			next.link, l = l, nil
		}
		next.linkMu.Unlock()
	}
	if l != nil {
		l.close()
	}
}

// regionEntry is one region's control-plane state: its coverage area
// and the primary/standby pair serving it.
type regionEntry struct {
	name    string
	area    geo.Circle
	primary *nodeEntry
	standby *nodeEntry
	// orphan is a primary whose trunk died with no standby to promote:
	// its link stays up in case the same worker enrolls again.
	orphan *nodeEntry
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
// returns the entry it replaces, for the caller to retire.
func (g *registry) enroll(h wire.NodeHello, t *trunk) (n, replaced *nodeEntry, err error) {
	if h.Region == "" || h.NodeID == "" {
		return nil, nil, fmt.Errorf("cluster: enrollment needs a node id and a region")
	}
	area := geo.Circle{Center: geo.Point{Lat: h.Lat, Lon: h.Lon}, RadiusM: h.RadiusM}
	if !area.Center.Valid() || area.RadiusM <= 0 {
		return nil, nil, fmt.Errorf("cluster: enrollment for %s has no coverage area", h.Region)
	}
	n = &nodeEntry{id: h.NodeID, role: h.NodeRole, addr: h.Addr, trunk: t}
	g.mu.Lock()
	defer g.mu.Unlock()
	re, ok := g.regions[h.Region]
	if !ok {
		re = &regionEntry{name: h.Region}
		g.regions[h.Region] = re
	}
	switch h.NodeRole {
	case wire.NodeRolePrimary:
		if h.Addr == "" {
			return nil, nil, fmt.Errorf("cluster: a primary must advertise a session address")
		}
		replaced = re.primary
		if replaced == nil {
			replaced = re.orphan
		}
		re.primary, re.orphan = n, nil
		re.area = area
	case wire.NodeRoleStandby:
		re.standby = n
		if re.primary == nil {
			re.area = area
		}
	default:
		return nil, nil, fmt.Errorf("cluster: unknown node role %q", h.NodeRole)
	}
	return n, replaced, nil
}

// drop removes whatever entries a dead trunk owned. It returns, per
// region, the standby to promote when the trunk was that region's
// primary and a standby is enrolled — and then also the dropped
// primary, for the caller to retire: its region is moving. Without a
// standby the primary is kept as the region's orphan, for a re-enrolling
// worker at the same address to take its link over.
func (g *registry) drop(t *trunk) (promote []promotion, retired []*nodeEntry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, re := range g.regions {
		if re.primary != nil && re.primary.trunk == t {
			if re.standby != nil {
				promote = append(promote, promotion{region: name, standby: re.standby})
				retired = append(retired, re.primary)
			} else {
				re.orphan = re.primary
			}
			re.primary = nil
		}
		if re.standby != nil && re.standby.trunk == t {
			re.standby = nil
		}
	}
	return promote, retired
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
