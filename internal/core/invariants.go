package core

import (
	"fmt"
	"sort"
)

// Invariant accessors for chaos campaigns. A chaos run hammers the
// sharded layer with re-homing storms, crash-recoveries, and byzantine
// traffic, then asks the questions below; anything non-empty is a bug in
// the resilience machinery, never acceptable collateral.

// PendingDispatches reports how many dispatched requests are still
// awaiting an upload — the quantity that must drain to zero once a chaos
// scenario stops injecting faults and deadlines pass.
func (s *Server) PendingDispatches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, list := range s.pending {
		n += len(list)
	}
	return n
}

// DeviceHomes returns a copy of the device-routing index: device ID ->
// shard index. Chaos checkers compare it against the shards' stores.
func (s *ShardedServer) DeviceHomes() map[string]int {
	s.lockAllStripes()
	defer s.unlockAllStripes()
	return s.deviceHomesLocked()
}

// deviceHomesLocked merges the stripes into one map. Caller holds every
// stripe.
func (s *ShardedServer) deviceHomesLocked() map[string]int {
	out := make(map[string]int)
	for i := range s.devices {
		for id, home := range s.devices[i].home {
			out[id] = home
		}
	}
	return out
}

// DeviceCount sums registered devices across shards.
func (s *ShardedServer) DeviceCount() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.server.Devices().Len()
	}
	return total
}

// PendingDispatches sums outstanding dispatches across shards.
func (s *ShardedServer) PendingDispatches() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.server.PendingDispatches()
	}
	return total
}

// CheckHomingInvariants verifies the single-home guarantee the re-homing
// protocol promises: every registered device lives in EXACTLY one
// shard's store, and the routing index agrees with the stores. It
// returns one message per violation (empty = healthy). The check takes
// every routing stripe, so call it at a quiesce point, not mid-storm.
//
// Note the deliberate asymmetry: a device in a store without an index
// entry is a violation (it would never receive control traffic again —
// stranded), but the check tolerates nothing in the other direction
// either — an index entry with no stored record routes updates into
// errors forever.
func (s *ShardedServer) CheckHomingInvariants() []string {
	s.lockAllStripes()
	defer s.unlockAllStripes()
	routed := s.deviceHomesLocked()
	var violations []string

	// Where each device actually lives.
	stored := make(map[string][]int)
	for i, sh := range s.shards {
		for _, d := range sh.server.Devices().All() {
			stored[d.ID] = append(stored[d.ID], i)
		}
	}

	ids := make([]string, 0, len(stored))
	for id := range stored {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		homes := stored[id]
		if len(homes) > 1 {
			violations = append(violations,
				fmt.Sprintf("device %s stored in %d shards %v (double-homed)", id, len(homes), homes))
		}
		idx, ok := routed[id]
		switch {
		case !ok:
			violations = append(violations,
				fmt.Sprintf("device %s stored in shard %d but missing from routing index (stranded)", id, homes[0]))
		case len(homes) == 1 && idx != homes[0]:
			violations = append(violations,
				fmt.Sprintf("device %s stored in shard %d but routed to shard %d", id, homes[0], idx))
		}
	}

	// Index entries pointing at nothing.
	indexed := make([]string, 0, len(routed))
	for id := range routed {
		indexed = append(indexed, id)
	}
	sort.Strings(indexed)
	for _, id := range indexed {
		if _, ok := stored[id]; !ok {
			violations = append(violations,
				fmt.Sprintf("device %s routed to shard %d but stored nowhere (zero-homed)", id, routed[id]))
		}
	}
	return violations
}

// CheckTaskRoutingInvariants verifies every routed task exists on the
// shard the index names, and every stored task is routed. Same contract
// as CheckHomingInvariants: empty means healthy.
func (s *ShardedServer) CheckTaskRoutingInvariants() []string {
	s.taskMu.RLock()
	defer s.taskMu.RUnlock()
	var violations []string
	stored := make(map[TaskID]int)
	for i, sh := range s.shards {
		for _, id := range sh.server.TaskIDs() {
			if prev, dup := stored[id]; dup {
				violations = append(violations,
					fmt.Sprintf("task %s stored in shards %d and %d", id, prev, i))
			}
			stored[id] = i
		}
	}
	for id, i := range stored {
		idx, ok := s.taskHome[id]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("task %s stored in shard %d but missing from routing index", id, i))
		} else if idx != i {
			violations = append(violations,
				fmt.Sprintf("task %s stored in shard %d but routed to shard %d", id, i, idx))
		}
	}
	for id, idx := range s.taskHome {
		if _, ok := stored[id]; !ok {
			violations = append(violations,
				fmt.Sprintf("task %s routed to shard %d but stored nowhere", id, idx))
		}
	}
	sort.Strings(violations)
	return violations
}
