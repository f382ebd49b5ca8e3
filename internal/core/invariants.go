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

// DeviceHomes returns where every device lives: device ID -> index of the
// (first) shard whose store holds it.
func (s *ShardedServer) DeviceHomes() map[string]int {
	out := make(map[string]int)
	for id, homes := range s.storedIn() {
		out[id] = homes[0]
	}
	return out
}

// storedIn lists, for every device, the shards whose stores hold it, in
// shard order. It holds every stripe (taken in index order) while it
// reads, so no device is between shards.
func (s *ShardedServer) storedIn() map[string][]int {
	for i := range s.devices {
		s.devices[i].mu.Lock()
		defer s.devices[i].mu.Unlock()
	}
	stored := make(map[string][]int)
	for i, sh := range s.shards {
		for _, d := range sh.server.Devices().All() {
			stored[d.ID] = append(stored[d.ID], i)
		}
	}
	return stored
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
// protocol promises: no device lives in more than one shard's store. It
// returns one message per violation (empty = healthy). Where a device
// lives is read from the stores themselves, so a device stored once
// cannot be mis-routed or stranded; what is left to check is that it is
// not stored twice. The check takes every stripe, so call it at a
// quiesce point, not mid-storm.
func (s *ShardedServer) CheckHomingInvariants() []string {
	var violations []string
	for id, homes := range s.storedIn() {
		if len(homes) > 1 {
			violations = append(violations,
				fmt.Sprintf("device %s stored in %d shards %v (double-homed)", id, len(homes), homes))
		}
	}
	sort.Strings(violations)
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
