package wire

import "time"

// Live-aggregation subscription channel (DESIGN.md §15). A CAS that
// wants "the 1-minute mean per cell" subscribes once instead of
// collecting raw receive_sensed_data points; the server then streams
// agg_push frames as windows close. Both messages have binary payload
// encoders, and a router relays them like every other session frame.

// Aggregation message types.
const (
	// CAS -> server: open a window subscription. The Ack's Ref carries
	// the subscription id echoed on every matching agg_push.
	TypeSubscribeAgg MsgType = "subscribe_agg"
	// Server -> CAS: one batch of closed windows for one subscription.
	TypeAggPush MsgType = "agg_push"
)

// SubscribeAgg scopes a subscription. Empty Task/Region match all.
// Every is the emission cadence in base windows, Span how many base
// windows each emission merges: Every=1/Span=1 is plain tumbling,
// Every=1/Span=3 a 3-window sliding view, Every=Span=5 a coarser
// tumbling rollup. Zero values mean 1.
type SubscribeAgg struct {
	Task   string `json:"task,omitempty"`
	Region string `json:"region,omitempty"`
	Every  int    `json:"every,omitempty"`
	Span   int    `json:"span,omitempty"`
}

// AggWindow is one closed rollup window for one series.
type AggWindow struct {
	TaskID  string `json:"task_id"`
	Region  string `json:"region,omitempty"`
	CellLat int32  `json:"cell_lat"`
	CellLon int32  `json:"cell_lon"`

	Start time.Time `json:"start"`
	End   time.Time `json:"end"`

	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	// FreshnessMS is window end minus newest sample, in milliseconds —
	// how stale the series already was when the window closed.
	FreshnessMS int64 `json:"freshness_ms"`
}

// AggPush delivers every window that closed for one subscription in one
// advance, batched into a single frame.
type AggPush struct {
	Sub     string      `json:"sub"`
	Windows []AggWindow `json:"windows"`
}
