package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"senseaid/internal/geo"
)

// SelectorConfig holds the scoring weights and hard cutoffs of the device
// selector. The paper uses a linear combination
//
//	Score(i) = alpha*E_i + beta*U_i + gamma*(100-CBL_i) + phi*TTL_i
//
// where lower scores are preferred, plus three hard cutoffs: a cap on how
// often a device may be picked, the user's energy budget, and the user's
// critical battery level.
type SelectorConfig struct {
	// Alpha weighs E_i, the crowdsensing energy (J) already spent.
	Alpha float64
	// Beta weighs U_i, the number of prior selections.
	Beta float64
	// Gamma weighs (100 - CBL_i), the battery deficit.
	Gamma float64
	// Phi weighs TTL_i, seconds since the last radio communication. A
	// small TTL means the radio is likely still in its tail, so the
	// sensed value can ride the tail for free.
	Phi float64
	// Rho weighs (1 - Reliability_i), the data-quality reputation
	// deficit — the paper's pointer that reliable-data work "can be
	// incorporated as another factor in our device selector algorithm".
	// Zero disables the factor.
	Rho float64
	// MaxUses is the hard cutoff on selections per accounting window.
	MaxUses int
	// MinReliability is a hard cutoff: devices scoring below it are
	// disqualified. Zero disables the cutoff.
	MinReliability float64
}

// DefaultSelectorConfig returns weights that make one selection weigh as
// much as ~25 J of spent energy or ~20 battery points, with TTL as the
// tiebreaker among otherwise-equal devices: fairness first (the paper's
// Figure 9 rotation), then opportunism.
func DefaultSelectorConfig() SelectorConfig {
	return SelectorConfig{
		Alpha:   0.04,
		Beta:    1.0,
		Gamma:   0.05,
		Phi:     0.0005,
		MaxUses: 1_000,
	}
}

// Validate checks the weights are usable.
func (c SelectorConfig) Validate() error {
	if c.Alpha < 0 || c.Beta < 0 || c.Gamma < 0 || c.Phi < 0 || c.Rho < 0 {
		return fmt.Errorf("core: selector weights must be non-negative: %+v", c)
	}
	if c.MaxUses <= 0 {
		return fmt.Errorf("core: selector MaxUses must be positive, got %d", c.MaxUses)
	}
	if c.MinReliability < 0 || c.MinReliability > 1 {
		return fmt.Errorf("core: MinReliability %v out of [0,1]", c.MinReliability)
	}
	return nil
}

// Selector ranks and picks devices for requests.
type Selector struct {
	cfg SelectorConfig
}

// NewSelector builds a selector.
func NewSelector(cfg SelectorConfig) (*Selector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Selector{cfg: cfg}, nil
}

// TTLCapSeconds bounds the selector's TTL_i term. TTL measures how long
// since the radio last talked — beyond an hour there is certainly no
// tail to ride, and letting the term grow unbounded would let staleness
// swamp the fairness terms (a week of silence would outweigh hundreds of
// selections). A device that has never communicated (zero LastComm) has
// no tail by definition and takes the full cap rather than the ~50-year
// TTL the raw subtraction would produce.
const TTLCapSeconds = 3600

// Score computes the paper's scoring function for one device at an
// instant; lower is better.
func (s *Selector) Score(d DeviceState, now time.Time) float64 {
	return s.score(&d, now)
}

// score is Score by pointer: the selection pass scores store records in
// place.
func (s *Selector) score(d *DeviceState, now time.Time) float64 {
	var ttl float64
	if d.LastComm.IsZero() {
		// Never communicated: no tail, worst TTL — explicitly, instead of
		// the zero-value time dominating every other factor.
		ttl = TTLCapSeconds
	} else {
		ttl = now.Sub(d.LastComm).Seconds()
		if ttl < 0 {
			ttl = 0
		}
		if ttl > TTLCapSeconds {
			ttl = TTLCapSeconds
		}
	}
	return s.cfg.Alpha*d.EnergySpentJ +
		s.cfg.Beta*float64(d.TimesUsed) +
		s.cfg.Gamma*(100-d.BatteryPct) +
		s.cfg.Phi*ttl +
		s.cfg.Rho*(1-d.Reliability)
}

// DisqualifyReason explains why a device is not qualified for a request.
type DisqualifyReason string

// Reasons a device fails qualification — the paper's two headline causes
// (out of region, missing/invalid sensor) plus the hard cutoffs.
const (
	ReasonOutOfRegion     DisqualifyReason = "out of task region"
	ReasonNoSensor        DisqualifyReason = "required sensor missing"
	ReasonWrongDeviceType DisqualifyReason = "device type mismatch"
	ReasonOverBudget      DisqualifyReason = "energy budget exhausted"
	ReasonLowBattery      DisqualifyReason = "battery below critical level"
	ReasonOverused        DisqualifyReason = "selection cap reached"
	ReasonUnresponsive    DisqualifyReason = "device unresponsive"
	ReasonUnreliable      DisqualifyReason = "reliability below minimum"
)

// cutoff returns the reason a device already known to be inside the
// task's area is ineligible, or "" when it qualifies. It is the single
// source of truth for every non-spatial cut-off; the area test is the
// selection pass's (and ReasonOutOfRegion its verdict).
func (s *Selector) cutoff(t *Task, d *DeviceState) DisqualifyReason {
	switch {
	case !d.Responsive:
		return ReasonUnresponsive
	case !slices.Contains(d.Sensors, t.Sensor): // HasSensor would copy the record
		return ReasonNoSensor
	case t.DeviceType != "" && d.DeviceType != t.DeviceType:
		return ReasonWrongDeviceType
	case d.TimesUsed >= s.cfg.MaxUses:
		return ReasonOverused
	case d.EnergySpentJ >= d.Budget.TotalJ:
		return ReasonOverBudget
	case d.BatteryPct <= d.Budget.CriticalBatteryPct:
		return ReasonLowBattery
	case s.cfg.MinReliability > 0 && d.Reliability < s.cfg.MinReliability:
		return ReasonUnreliable
	default:
		return ""
	}
}

// ErrNotEnoughDevices reports an unsatisfiable request: fewer qualified
// devices than the task's spatial density.
type ErrNotEnoughDevices struct {
	Request   string
	Want, Got int
}

// Error implements error.
func (e *ErrNotEnoughDevices) Error() string {
	return fmt.Sprintf("core: request %s needs %d devices, only %d qualified", e.Request, e.Want, e.Got)
}

// ranked is one qualified record in the running top-k: a pointer into
// the store (valid only while its read lock is held) and the score
// computed once for it.
type ranked struct {
	score float64
	dev   *DeviceState
}

// compare orders ranked records best first: lowest score, ties broken by
// device ID so runs are deterministic.
func (a ranked) compare(b ranked) int {
	switch {
	case a.score < b.score:
		return -1
	case a.score > b.score:
		return 1
	}
	return strings.Compare(a.dev.ID, b.dev.ID)
}

// keepAll makes a selection pass keep every qualified device (the
// SelectAll ablation); keep 0 makes it count only.
const keepAll = math.MaxInt

// SelectScratch holds one selection pass: its parameters, its running
// top-k and its results. A zero value is ready to use; reusing one
// across passes (the scheduler keeps one per server, under its
// scheduling lock) makes the steady state allocation-free. Not safe for
// concurrent use.
type SelectScratch struct {
	sel  *Selector
	task *Task
	now  time.Time
	area geo.PreparedCircle
	keep int

	// inArea counts the records found inside the area; qualified those
	// among them known to pass every cut-off — all of them while fewer
	// than keep have been found (and always when counting only or
	// keeping all), at least keep otherwise.
	inArea, qualified int
	// top holds the best keep records seen so far; once it is full it is
	// a max-heap on compare, so its root is the record the next better
	// one evicts.
	top []ranked
	// winners are the kept records, copied out of the store best first
	// before its lock is released.
	winners []DeviceState
}

// consider is called by DeviceStore.scan, under the store's read lock,
// for every record inside the area.
func (p *SelectScratch) consider(d *DeviceState) {
	p.inArea++
	full := p.keep > 0 && len(p.top) == p.keep
	var r ranked
	if full {
		// Score before qualifying. A record that cannot displace the
		// worst one kept is not a winner whether or not it qualifies,
		// and once the heap has filled almost every record is such: it
		// is dismissed on the fields the score reads, without touching
		// its sensor list or the rest of the cut-offs.
		r = ranked{score: p.sel.score(d, p.now), dev: d}
		if r.compare(p.top[0]) >= 0 {
			return
		}
	}
	if p.sel.cutoff(p.task, d) != "" {
		return
	}
	p.qualified++
	switch {
	case p.keep <= 0: // count only
	case full:
		p.top[0] = r
		p.siftDown(0)
	default:
		p.top = append(p.top, ranked{score: p.sel.score(d, p.now), dev: d})
		if len(p.top) == p.keep {
			for i := len(p.top)/2 - 1; i >= 0; i-- {
				p.siftDown(i)
			}
		}
	}
}

// siftDown restores the max-heap below index i.
func (p *SelectScratch) siftDown(i int) {
	h := p.top
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && h[worst].compare(h[l]) < 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && h[worst].compare(h[r]) < 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// finish is called by DeviceStore.scan after the last record, still
// under the read lock: the kept records are ranked and copied out, so
// nothing reads the store through a pointer once the lock is gone. The
// copies share the store's immutable Sensors backing arrays; callers
// treat DeviceState.Sensors as read-only.
func (p *SelectScratch) finish() {
	slices.SortFunc(p.top, ranked.compare)
	for _, r := range p.top {
		p.winners = append(p.winners, *r.dev)
	}
	clear(p.top) // drop the pointers into the store
	p.top = p.top[:0]
}

// pick is the one selection pass, used by the scheduler, the wait-queue
// re-check and the SelectAll ablation alike. It walks the store's
// spatial index once, in place: each live record in the area's covering
// cells is tested for containment, and those inside are qualified,
// scored and the best keep held in a bounded heap — no candidate is
// copied unless it wins. It returns how many records were inside the
// area and how many of those qualified; the second count is exact when
// it is below keep (the request is unsatisfiable: the caller needs the
// shortfall) and with keep 0 or keepAll, and otherwise only known to
// have reached keep. The winners (at most keep, all of them with
// keepAll, none with 0) are left in sc.winners, best first, valid until
// the scratch is reused.
func (s *Selector) pick(store *DeviceStore, t *Task, now time.Time, keep int, sc *SelectScratch) (inArea, qualified int) {
	sc.sel, sc.task, sc.now, sc.keep = s, t, now, keep
	sc.area = t.Area.Prepare()
	sc.inArea, sc.qualified = 0, 0
	sc.top, sc.winners = sc.top[:0], sc.winners[:0]
	store.scan(sc)
	return sc.inArea, sc.qualified
}

// SelectIn picks the request's spatial-density-many best devices among
// the store's records inside the task area (lowest score first; ties
// broken by device ID so runs are deterministic). It returns
// ErrNotEnoughDevices when fewer qualify. The result aliases the scratch
// and is valid only until its next use; callers copy what they keep.
func (s *Selector) SelectIn(store *DeviceStore, req Request, now time.Time, sc *SelectScratch) ([]DeviceState, error) {
	n := req.Task.SpatialDensity
	if _, got := s.pick(store, req.Task, now, n, sc); got < n {
		return nil, &ErrNotEnoughDevices{Request: req.ID(), Want: n, Got: got}
	}
	return sc.winners, nil
}
