// Package client is the Sense-Aid client-side library: the API the paper
// offers crowdsensing apps on the device. Its surface matches section 3.3
// exactly — Register, Deregister, UpdatePreferences, StartSensing, and
// SendSenseData — plus the service-thread state report and a tail-time
// observer that tells apps when an upload is cheap.
//
// "The rest of the work for the client is only to sample the sensor and
// upload the value at the specified time": an app calls StartSensing with
// a handler, samples when a Schedule arrives, and hands the reading to
// SendSenseData. No GPS is needed — the network knows the coarse location.
package client

import (
	"fmt"
	"net"
	"sync"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// Config identifies the device to the middleware.
type Config struct {
	// Addr is the Sense-Aid server's TCP address.
	Addr string
	// DeviceID is the hash of the IMEI; never send the raw IMEI.
	DeviceID string
	// Position is the device's registration-time location.
	Position geo.Point
	// BatteryPct is the battery level at registration.
	BatteryPct float64
	// Sensors lists the onboard hardware.
	Sensors []sensors.Type
	// DeviceType optionally names the model (Table 1's device_type).
	DeviceType string
	// Budget is the user's crowdsensing allowance; zero value uses the
	// survey default.
	Budget power.Budget
	// Dialer overrides how the client reaches the server; nil uses a
	// plain 5 s TCP dial. Tests inject fault-wrapped connections here.
	Dialer func(addr string) (net.Conn, error)
	// Codec may name the wire codec: "", "binary" or "v2", which all
	// mean binary, the only one; anything else fails Dial. It is kept
	// only until the benchmark harness (bench/) stops setting it.
	Codec string
}

// ScheduleHandler receives sensing schedules pushed by the server.
type ScheduleHandler func(wire.Schedule)

// Client is a connected Sense-Aid device client.
type Client struct {
	cfg  Config
	conn *wire.RPCConn

	mu      sync.Mutex
	handler ScheduleHandler
	backlog []wire.Schedule
}

// Dial connects and handshakes; call Register next.
func Dial(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("client: empty server address")
	}
	if cfg.DeviceID == "" {
		return nil, fmt.Errorf("client: empty device ID")
	}
	if cfg.Budget == (power.Budget{}) {
		cfg.Budget = power.DefaultBudget()
	}
	dial := cfg.Dialer
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if _, err := wire.CodecByName(cfg.Codec); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	nc, err := dial(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", cfg.Addr, err)
	}
	c := &Client{cfg: cfg}
	rc, err := wire.NewRPCConn(nc, wire.RoleDevice, c.onPush)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	c.conn = rc
	return c, nil
}

// onPush routes server-initiated messages.
func (c *Client) onPush(env wire.Envelope) {
	if env.Type != wire.TypeSchedule {
		return
	}
	var sch wire.Schedule
	if err := wire.Decode(env, &sch); err != nil {
		return
	}
	c.mu.Lock()
	h := c.handler
	if h == nil {
		// StartSensing not called yet: hold the schedule.
		c.backlog = append(c.backlog, sch)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	h(sch)
}

// Register signs the device up for crowdsensing campaigns.
func (c *Client) Register() error {
	_, err := c.conn.Call(wire.TypeRegister, wire.Register{
		DeviceID:   c.cfg.DeviceID,
		Position:   c.cfg.Position,
		BatteryPct: c.cfg.BatteryPct,
		Sensors:    c.cfg.Sensors,
		DeviceType: c.cfg.DeviceType,
		Budget:     c.cfg.Budget,
	})
	return err
}

// Deregister withdraws the device and closes the connection.
func (c *Client) Deregister() error {
	_, err := c.conn.Call(wire.TypeDeregister, wire.Ack{})
	closeErr := c.conn.Close()
	if err != nil {
		return err
	}
	return closeErr
}

// UpdatePreferences changes the user's energy budget and critical battery
// level.
func (c *Client) UpdatePreferences(b power.Budget) error {
	if err := b.Validate(); err != nil {
		return err
	}
	_, err := c.conn.Call(wire.TypeUpdatePrefs, wire.UpdatePrefs{Budget: b})
	return err
}

// StartSensing installs the schedule handler; schedules that arrived
// before it are replayed immediately, in order.
func (c *Client) StartSensing(h ScheduleHandler) error {
	if h == nil {
		return fmt.Errorf("client: nil schedule handler")
	}
	c.mu.Lock()
	c.handler = h
	backlog := c.backlog
	c.backlog = nil
	c.mu.Unlock()
	for _, sch := range backlog {
		h(sch)
	}
	return nil
}

// SendSenseData uploads one reading for a scheduled request.
func (c *Client) SendSenseData(requestID string, r sensors.Reading) error {
	return c.SendSenseDataVia(requestID, r, "")
}

// SendSenseDataVia uploads a reading tagged with how it rode the radio
// (wire.PathTail when it reused a live tail window, wire.PathPromoted
// when the radio was woken for it). The daemon uses this so the server's
// senseaid_uploads_total series reflects the paper's energy mechanism.
func (c *Client) SendSenseDataVia(requestID string, r sensors.Reading, path string) error {
	return c.SendSenseDataTraced(requestID, r, path, "", "")
}

// SendSenseDataTraced uploads a reading echoing the trace context the
// schedule arrived with (wire.Schedule.TraceID/SpanID), so the upload
// joins the task's end-to-end trace. Empty context behaves exactly like
// SendSenseDataVia — nothing extra appears on the wire.
func (c *Client) SendSenseDataTraced(requestID string, r sensors.Reading, path, traceID, spanID string) error {
	if requestID == "" {
		return fmt.Errorf("client: empty request ID")
	}
	_, err := c.conn.Call(wire.TypeSenseData, wire.SenseData{
		RequestID: requestID, Reading: r, Path: path,
		TraceID: traceID, SpanID: spanID,
	})
	return err
}

// ReportState is the service thread's control message: position, battery
// and the latest radio-communication stamp, sent when a tail window makes
// it nearly free.
func (c *Client) ReportState(pos geo.Point, batteryPct float64, lastComm time.Time) error {
	_, err := c.conn.Call(wire.TypeStateReport, wire.StateReport{
		Position:   pos,
		BatteryPct: batteryPct,
		LastComm:   lastComm,
	})
	return err
}

// Close tears the connection down without deregistering.
func (c *Client) Close() error { return c.conn.Close() }

// Done is closed when the connection dies — peer disconnect, protocol
// fault, stalled write, or Close. The daemon's reconnect supervisor
// watches it.
func (c *Client) Done() <-chan struct{} { return c.conn.Done() }
