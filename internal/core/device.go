package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
)

// DeviceState is the server's view of one registered device: the fields
// the paper's device datastore tracks (hashed IMEI, energy budget, battery
// level, selection count, last radio communication) plus the RAN-provided
// coarse location and the capability facts needed for qualification.
type DeviceState struct {
	// ID is the hash of the device IMEI; the raw IMEI never reaches the
	// server (the paper's privacy stance).
	ID string `json:"id"`
	// Position is the device location at tower granularity.
	Position geo.Point `json:"position"`
	// BatteryPct is the current battery level (CBL_i).
	BatteryPct float64 `json:"battery_pct"`
	// EnergySpentJ is crowdsensing energy used this accounting window (E_i).
	EnergySpentJ float64 `json:"energy_spent_j,omitempty"`
	// TimesUsed counts selections this accounting window (U_i).
	TimesUsed int `json:"times_used,omitempty"`
	// LastComm is the most recent radio communication; now-LastComm is
	// the selector's TTL_i factor.
	LastComm time.Time `json:"last_comm"`
	// Sensors lists the hardware present.
	Sensors []sensors.Type `json:"sensors"`
	// DeviceType is the device model for Table 1's optional filter.
	DeviceType string `json:"device_type,omitempty"`
	// Budget is the user's crowdsensing allowance.
	Budget power.Budget `json:"budget"`
	// Responsive is cleared when the device stops answering schedules;
	// unresponsive devices are excluded from selection (paper section 3.2).
	Responsive bool `json:"responsive"`
	// Reliability in [0,1] is the data-quality reputation (see
	// internal/reputation); 1.0 for devices with no history. The
	// selector weighs it via Rho and cuts off below MinReliability.
	Reliability float64 `json:"reliability"`
}

// HasSensor reports whether the device carries the sensor.
func (d DeviceState) HasSensor(t sensors.Type) bool {
	for _, s := range d.Sensors {
		if s == t {
			return true
		}
	}
	return false
}

// DefaultCellSizeM is the edge length of the store's spatial-index
// cells. Task areas are hundreds of meters to a few kilometers (the
// paper works at cell-tower granularity), so 500 m keeps a typical
// area's cover to a handful of buckets without fragmenting the index.
const DefaultCellSizeM = 500

// DeviceStore is the device datastore. Safe for concurrent use: it
// carries its own lock, separate from the server's scheduling lock, so
// device control reports never contend with a scheduling pass. In the
// lock hierarchy the store's lock is a leaf — no DeviceStore method calls
// back into the server.
//
// The records themselves are the spatial index: each occupied grid cell
// owns one slab, a contiguous array of the records positioned in it, so
// the scheduler reads the records of a task region in place, in time
// proportional to the devices *near the region*, streaming memory rather
// than following a pointer per device. devices names each record's
// current place (a slot), so a write to one device is a lookup and an
// index; every write that moves a record — register, restore,
// deregister, a position report that changes cell — moves it and fixes
// the slots under the same lock, so the index is never stale relative to
// a read.
type DeviceStore struct {
	mu      sync.RWMutex
	devices map[string]slot
	grid    geo.Grid
	cells   map[geo.Cell]*slab
}

// slab holds the records of one occupied grid cell, in no particular
// order. A slab is never kept empty: device churn must not grow the
// index forever.
type slab struct {
	cell geo.Cell
	recs []DeviceState
}

// slot is where a device's record lives right now: recs[idx] of slab.
// It is only meaningful under the store's lock, and so is any pointer to
// the record: another device's move may swap a different record into the
// same place, and an append may move the whole array.
type slot struct {
	slab *slab
	idx  int
}

// rec is the slot's record, in place.
func (sl slot) rec() *DeviceState { return &sl.slab.recs[sl.idx] }

// NewDeviceStore returns an empty store indexed at DefaultCellSizeM.
func NewDeviceStore() *DeviceStore {
	return &DeviceStore{
		devices: make(map[string]slot),
		grid:    geo.Grid{SizeM: DefaultCellSizeM},
		cells:   make(map[geo.Cell]*slab),
	}
}

// slabStep is how much spare capacity a slab of n records is given when
// it fills, and slabSlackSteps how many such steps of slack it may carry
// before it is cut back to one. Every reallocation copies the slab, so
// the two marks are set apart: a cell that fills and drains with the
// day's commute reallocates a few times per doubling or halving, not on
// every handful of arrivals (steps of n/8 cut back at two more than
// doubled the bytes copied on a commuting fleet, and showed in recovery
// time), and a cell whose population only fluctuates does not reallocate
// at all. In return cap <= n + slabSlackSteps*slabStep(n): a slab holds
// at most twice its records plus sixteen. Measured over a whole store,
// slabs carry about 15 % over their records on a static fleet and 30 %
// on a commuting one, which is what the per-device heap objects and
// per-cell maps they replaced cost. (append's doubling carries half as
// much again on growth alone, and never shrinks.)
func slabStep(n int) int { return max(4, n/4) }

const slabSlackSteps = 4

// resize gives the slab room for one step beyond its records.
func (b *slab) resize() {
	n := len(b.recs)
	b.recs = append(make([]DeviceState, 0, n+slabStep(n)), b.recs...)
}

// place appends d to the slab of cell c, giving the cell a slab if it
// was empty, and points the device's slot at it. Caller holds s.mu.
func (s *DeviceStore) place(c geo.Cell, d *DeviceState) {
	b := s.cells[c]
	if b == nil {
		b = &slab{cell: c}
		s.cells[c] = b
	}
	if len(b.recs) == cap(b.recs) {
		b.resize()
	}
	s.devices[d.ID] = slot{slab: b, idx: len(b.recs)}
	b.recs = append(b.recs, *d)
}

// unplace takes the slot's record out of its slab: the slab's last
// record is moved into the gap and its slot told so — the only other
// device affected. The departing device's own slot is left for the
// caller to overwrite (place) or delete. Any pointer into the slab is
// stale afterwards, which is why none outlives the lock. Caller holds
// s.mu.
func (s *DeviceStore) unplace(sl slot) {
	b, i := sl.slab, sl.idx
	last := len(b.recs) - 1
	if last == 0 {
		delete(s.cells, b.cell)
		return
	}
	if i != last {
		b.recs[i] = b.recs[last]
		s.devices[b.recs[i].ID] = slot{slab: b, idx: i}
	}
	b.recs[last] = DeviceState{} // drop the tail's references
	b.recs = b.recs[:last]
	if cap(b.recs)-last > slabSlackSteps*slabStep(last) {
		b.resize()
	}
}

// validBattery reports whether a battery percentage is a usable level.
// NaN poisons the selector's sort (NaN comparisons make the order
// nondeterministic), so it is rejected at the datastore boundary along
// with infinities and out-of-range values.
func validBattery(pct float64) bool {
	return !math.IsNaN(pct) && pct >= 0 && pct <= 100
}

// validate checks the invariants every stored record must satisfy.
func validate(d *DeviceState) error {
	if d.ID == "" {
		return fmt.Errorf("core: register: empty device ID")
	}
	if !d.Position.Valid() {
		return fmt.Errorf("core: register %s: invalid position %v", d.ID, d.Position)
	}
	if !validBattery(d.BatteryPct) {
		return fmt.Errorf("core: register %s: battery %v out of [0,100]", d.ID, d.BatteryPct)
	}
	if math.IsNaN(d.EnergySpentJ) || math.IsInf(d.EnergySpentJ, 0) || d.EnergySpentJ < 0 {
		return fmt.Errorf("core: register %s: invalid energy spent %v", d.ID, d.EnergySpentJ)
	}
	if err := d.Budget.Validate(); err != nil {
		return fmt.Errorf("core: register %s: %w", d.ID, err)
	}
	if math.IsNaN(d.Reliability) || d.Reliability < 0 || d.Reliability > 1 {
		return fmt.Errorf("core: register %s: reliability %v out of [0,1]", d.ID, d.Reliability)
	}
	return nil
}

// put installs a record the store may keep as it stands (validated, its
// Sensors array never written again), replacing any record of the same
// ID, and returns how many devices the store then holds.
func (s *DeviceStore) put(d *DeviceState) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.grid.CellOf(d.Position)
	if sl, ok := s.devices[d.ID]; ok {
		if sl.slab.cell == c {
			*sl.rec() = *d
			return len(s.devices)
		}
		s.unplace(sl)
	}
	s.place(c, d)
	return len(s.devices)
}

// take removes a device and hands its record to the caller: the record
// itself with its Sensors array, not a copy, since the store no longer
// refers to either. It is how a record moves to another shard's store
// (put) or another node: copy and removal are one lock acquisition, so
// no write can land between them and be lost. n is how many remain.
func (s *DeviceStore) take(id string) (rec DeviceState, n int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.devices[id]
	if ok {
		rec = *sl.rec()
		s.unplace(sl)
		delete(s.devices, id)
	}
	return rec, len(s.devices), ok
}

// Register adds or replaces a device record. Registration is a fresh
// start: the device is marked responsive and an unset reliability reads
// as 1.0 (no history yet).
func (s *DeviceStore) Register(d DeviceState) error {
	_, _, err := s.register(d)
	return err
}

// register is Register handing back the record as stored (defaults
// applied; it shares the stored Sensors array, which no store method
// writes) and the store's new length. Sensors is cloned so the store owns
// the array: the caller may keep mutating its own without racing readers.
func (s *DeviceStore) register(d DeviceState) (DeviceState, int, error) {
	if err := validate(&d); err != nil {
		return DeviceState{}, 0, err
	}
	if d.Reliability == 0 {
		d.Reliability = 1 // no history yet
	}
	d.Responsive = true
	d.Sensors = slices.Clone(d.Sensors)
	return d, s.put(&d), nil
}

// Restore stores a record verbatim, preserving its responsiveness flag,
// reliability score, and fairness counters. It is how a record arrives
// from outside the process (another node's export, a snapshot, the
// journal), keeping the liveness state the scheduler gave it, where
// Register would silently rehabilitate it, and a reliability
// legitimately driven to 0, which Register would default to 1.
func (s *DeviceStore) Restore(d DeviceState) error {
	_, err := s.restore(d)
	return err
}

// restore is Restore returning the store's new length.
func (s *DeviceStore) restore(d DeviceState) (int, error) {
	d.Sensors = slices.Clone(d.Sensors)
	return s.restoreOwned(&d)
}

// restoreOwned is restore keeping d's Sensors array, which its caller
// hands over and never writes again (recovery's decoded records).
func (s *DeviceStore) restoreOwned(d *DeviceState) (int, error) {
	if err := validate(d); err != nil {
		return 0, err
	}
	return s.put(d), nil
}

// Deregister removes a device.
func (s *DeviceStore) Deregister(id string) { s.take(id) }

// Get returns a copy of a device record. The copy is fully detached:
// its Sensors slice is cloned, so mutating it cannot poison the live
// record (and cannot race a concurrent re-register).
func (s *DeviceStore) Get(id string) (DeviceState, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sl, ok := s.devices[id]
	if !ok {
		return DeviceState{}, false
	}
	out := *sl.rec()
	out.Sensors = slices.Clone(out.Sensors)
	return out, true
}

// Len returns the number of registered devices.
func (s *DeviceStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.devices)
}

// All returns copies of every record, sorted by ID for determinism.
// Copies are fully detached (Sensors cloned), so callers may mutate them
// freely. The scheduler never calls it: selection reads the records of a
// task area in place (see scan).
func (s *DeviceStore) All() []DeviceState {
	s.mu.RLock()
	out := make([]DeviceState, 0, len(s.devices))
	for _, b := range s.cells {
		for i := range b.recs {
			c := b.recs[i]
			c.Sensors = slices.Clone(c.Sensors)
			out = append(out, c)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// scan runs one selection pass over the records inside the pass's area:
// p.consider is called for each, then p.finish, all under the read lock.
// Records are read in place, slab by slab — that is what the lock is held
// for — and p keeps no pointer to one past finish, which copies the
// winners out. Only the slabs of the cells overlapping the area are
// visited; when the grid cannot cover the area (huge radius, polar or
// antimeridian regions) every slab is, so the records considered are the
// same either way. consider and finish must not call back into the store.
func (s *DeviceStore) scan(p *SelectScratch) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.grid.Cover(p.area.Circle())
	if !ok || b.Count() > len(s.cells) {
		// Fallback: visiting more (mostly empty) cells than the index
		// holds would cost more than scanning the population.
		for _, cell := range s.cells {
			cell.scan(p)
		}
	} else {
		for la := b.LatMin; la <= b.LatMax; la++ {
			for lo := b.LonMin; lo <= b.LonMax; lo++ {
				if cell := s.cells[geo.Cell{Lat: la, Lon: lo}]; cell != nil {
					cell.scan(p)
				}
			}
		}
	}
	p.finish()
}

// scan feeds the pass the slab's records that lie inside its area.
func (b *slab) scan(p *SelectScratch) {
	for i := range b.recs {
		if d := &b.recs[i]; p.area.Contains(d.Position) {
			p.consider(d)
		}
	}
}

// UpdateState applies a device's periodic control report (battery level,
// position, last-communication stamp). The report is validated at this
// boundary — NaN/Inf or out-of-range battery and invalid coordinates are
// rejected before they can reach the record — so a malformed
// state_report cannot poison the selector's scoring sort. A position
// move re-buckets the device in the spatial index under the same lock.
func (s *DeviceStore) UpdateState(id string, pos geo.Point, batteryPct float64, at time.Time) error {
	found, err := s.updateState(id, pos, batteryPct, at)
	if err == nil && !found {
		return fmt.Errorf("core: update: unknown device %s", id)
	}
	return err
}

// updateState is UpdateState telling "not stored here" (false, nil) from
// a refused report: the sharded layer asks a store whether a device is
// its own by handing it the device's report.
func (s *DeviceStore) updateState(id string, pos geo.Point, batteryPct float64, at time.Time) (found bool, err error) {
	if !pos.Valid() {
		return false, fmt.Errorf("core: update %s: invalid position %v", id, pos)
	}
	if !validBattery(batteryPct) {
		return false, fmt.Errorf("core: update %s: battery %v out of [0,100]", id, batteryPct)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.devices[id]
	if !ok {
		return false, nil
	}
	d := sl.rec()
	d.Position, d.BatteryPct, d.LastComm = pos, batteryPct, at
	if next := s.grid.CellOf(pos); next != sl.slab.cell {
		moved := *d
		s.unplace(sl)
		s.place(next, &moved)
	}
	return true, nil
}

// UpdateBudget changes only the device's crowdsensing allowance
// (update_preferences). Unlike a re-Register it leaves responsiveness,
// reliability, and the fairness counters untouched, so a budget tweak
// never rehabilitates a device the scheduler marked unresponsive.
func (s *DeviceStore) UpdateBudget(id string, b power.Budget) error {
	found, err := s.updateBudget(id, b)
	if err == nil && !found {
		return fmt.Errorf("core: prefs: unknown device %s", id)
	}
	return err
}

// updateBudget is UpdateBudget telling "not stored here" (false, nil)
// from a refused budget, as updateState does.
func (s *DeviceStore) updateBudget(id string, b power.Budget) (found bool, err error) {
	if err := b.Validate(); err != nil {
		return false, fmt.Errorf("core: prefs %s: %w", id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.devices[id]
	if ok {
		sl.rec().Budget = b
	}
	return ok, nil
}

// NoteSelected records one selection (U_i) of each device for fairness
// accounting: a request's winners are bumped under one lock acquisition.
func (s *DeviceStore) NoteSelected(ids ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if sl, ok := s.devices[id]; ok {
			sl.rec().TimesUsed++
		}
	}
}

// NoteEnergy adds crowdsensing energy spent by a device (E_i) and reports
// whether the store holds the device.
func (s *DeviceStore) NoteEnergy(id string, joules float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.devices[id]
	if ok && joules > 0 {
		sl.rec().EnergySpentJ += joules
	}
	return ok
}

// SetResponsive flips the responsiveness flag; the scheduler clears it
// when a device misses a dispatch so future selections skip it.
func (s *DeviceStore) SetResponsive(id string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sl, exists := s.devices[id]; exists {
		sl.rec().Responsive = ok
	}
}

// SetReliability updates the data-quality reputation (clamped to [0,1]).
func (s *DeviceStore) SetReliability(id string, score float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, exists := s.devices[id]
	if !exists {
		return
	}
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	sl.rec().Reliability = score
}

// ResetWindow zeroes the per-window fairness counters (the paper counts
// E_i and U_i "since the beginning of some reasonable time interval, say
// the week").
func (s *DeviceStore) ResetWindow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.cells {
		for i := range b.recs {
			b.recs[i].EnergySpentJ, b.recs[i].TimesUsed = 0, 0
		}
	}
}
