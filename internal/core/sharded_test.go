package core

import (
	"strings"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

func campusRegions() []Region {
	return []Region{
		{Name: "west", Area: geo.Circle{Center: geo.UniversityGym, RadiusM: 1200}},
		{Name: "east", Area: geo.Circle{Center: geo.Offset(geo.UniversityGym, 0, 5000), RadiusM: 1200}},
	}
}

func newSharded(t *testing.T) (*ShardedServer, *recordingDispatcher) {
	t.Helper()
	d := &recordingDispatcher{}
	s, err := NewShardedServer(DefaultServerConfig(), d, campusRegions())
	if err != nil {
		t.Fatalf("NewShardedServer: %v", err)
	}
	return s, d
}

func TestNewShardedValidation(t *testing.T) {
	d := &recordingDispatcher{}
	// No regions is one unnamed shard covering every point.
	s, err := NewShardedServer(DefaultServerConfig(), d, nil)
	if err != nil {
		t.Fatalf("no regions: %v", err)
	}
	if s.Shards() != 1 || s.RegionName(0) != "" || s.ShardFor(geo.Point{Lat: -80, Lon: 170}) != 0 {
		t.Fatalf("no regions built %d shards, first named %q", s.Shards(), s.RegionName(0))
	}
	bad := campusRegions()
	bad[1].Name = bad[0].Name
	if _, err := NewShardedServer(DefaultServerConfig(), d, bad); err == nil {
		t.Fatal("duplicate region names accepted")
	}
	bad = campusRegions()
	bad[0].Area.RadiusM = 0
	if _, err := NewShardedServer(DefaultServerConfig(), d, bad); err == nil {
		t.Fatal("zero-radius region accepted")
	}
	bad = campusRegions()
	bad[0].Name = ""
	if _, err := NewShardedServer(DefaultServerConfig(), d, bad); err == nil {
		t.Fatal("empty region name accepted")
	}
	// Names land in task/request IDs: '#' breaks ReceiveData's request
	// split, '/' makes prefixes ambiguous, whitespace breaks flags.
	for _, name := range []string{"we#st", "we/st", "we st", "west\t"} {
		bad = campusRegions()
		bad[0].Name = name
		if _, err := NewShardedServer(DefaultServerConfig(), d, bad); err == nil {
			t.Fatalf("region name %q accepted", name)
		}
	}
}

func TestDeviceHomedToCoveringShard(t *testing.T) {
	s, _ := newSharded(t)
	west := freshDevice("w1")
	west.Position = geo.UniversityGym
	if err := s.RegisterDevice(west); err != nil {
		t.Fatalf("RegisterDevice: %v", err)
	}
	if got := s.DeviceHomes()["w1"]; got != 0 {
		t.Fatalf("home shard = %d, want 0 (west)", got)
	}
	shard0, _, err := s.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := shard0.Devices().Get("w1"); !ok {
		t.Fatal("device missing from west shard store")
	}

	nowhere := freshDevice("lost")
	nowhere.Position = geo.Offset(geo.UniversityGym, 100_000, 0)
	if err := s.RegisterDevice(nowhere); err == nil {
		t.Fatal("out-of-coverage device registered")
	}
}

func TestDeviceRehomedOnMovement(t *testing.T) {
	s, _ := newSharded(t)
	d := freshDevice("mover")
	d.Position = geo.UniversityGym
	if err := s.RegisterDevice(d); err != nil {
		t.Fatal(err)
	}
	// Accumulate a fairness counter and a zeroed reputation, then move
	// east: both must survive the crossing verbatim.
	shard0, _, err := s.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	shard0.Devices().NoteSelected("mover")
	shard0.Devices().SetReliability("mover", 0)

	eastPos := geo.Offset(geo.UniversityGym, 0, 5000)
	if err := s.UpdateDeviceState("mover", eastPos, 77, simclock.Epoch.Add(time.Minute)); err != nil {
		t.Fatalf("UpdateDeviceState: %v", err)
	}
	if got := s.DeviceHomes()["mover"]; got != 1 {
		t.Fatalf("home shard after move = %d, want 1 (east)", got)
	}
	if _, ok := shard0.Devices().Get("mover"); ok {
		t.Fatal("device still in west shard after re-homing")
	}
	shard1, _, err := s.Shard(1)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := shard1.Devices().Get("mover")
	if !ok {
		t.Fatal("device missing from east shard")
	}
	if rec.TimesUsed != 1 {
		t.Fatalf("fairness counter lost in re-homing: TimesUsed = %d", rec.TimesUsed)
	}
	if rec.Reliability != 0 {
		t.Fatalf("zeroed reliability rehabilitated by re-homing: %v", rec.Reliability)
	}
	if rec.BatteryPct != 77 {
		t.Fatalf("battery not updated: %v", rec.BatteryPct)
	}
}

func TestTaskRoutedToCoveringShard(t *testing.T) {
	s, d := newSharded(t)
	dev := freshDevice("e1")
	dev.Position = geo.Offset(geo.UniversityGym, 0, 5000)
	if err := s.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}

	task := validTask()
	task.Area = geo.Circle{Center: dev.Position, RadiusM: 500}
	task.SpatialDensity = 1
	id, err := s.SubmitTask(task, simclock.Epoch, func(TaskID, string, sensors.Reading) {})
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if !strings.HasPrefix(string(id), "east/") {
		t.Fatalf("task ID = %s, want east/ prefix", id)
	}

	s.ProcessDue(simclock.Epoch)
	if len(d.calls) != 1 || d.calls[0].dev.ID != "e1" {
		t.Fatalf("dispatches = %+v, want one to e1", d.calls)
	}

	// Data routed back via the shard-qualified request ID.
	req := d.calls[0].req
	reading := sensors.Reading{
		Sensor: sensors.Barometer, At: simclock.Epoch.Add(time.Second), Where: dev.Position,
	}
	if err := s.ReceiveData(req.ID(), "e1", reading, reading.At); err != nil {
		t.Fatalf("ReceiveData: %v", err)
	}
	if st := s.Stats(); st.ReadingsAccepted != 1 {
		t.Fatalf("stats = %+v, want 1 accepted", st)
	}

	// Task outside all regions is rejected.
	task.Area.Center = geo.Offset(geo.UniversityGym, 100_000, 0)
	if _, err := s.SubmitTask(task, simclock.Epoch, func(TaskID, string, sensors.Reading) {}); err == nil {
		t.Fatal("uncovered task accepted")
	}
}

func TestShardedTaskLifecycle(t *testing.T) {
	s, _ := newSharded(t)
	task := validTask()
	task.Area = geo.Circle{Center: geo.UniversityGym, RadiusM: 400}
	id, err := s.SubmitTask(task, simclock.Epoch, func(TaskID, string, sensors.Reading) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateTaskParams(id, simclock.Epoch, func(tk *Task) { tk.SpatialDensity = 1 }); err != nil {
		t.Fatalf("UpdateTaskParams: %v", err)
	}
	if err := s.DeleteTask(id); err != nil {
		t.Fatalf("DeleteTask: %v", err)
	}
	if err := s.DeleteTask(id); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := s.UpdateTaskParams("west/task-404", simclock.Epoch, func(*Task) {}); err == nil {
		t.Fatal("update of unknown task accepted")
	}
}

func TestShardedNextWakeAggregates(t *testing.T) {
	s, _ := newSharded(t)
	if _, ok := s.NextWake(); ok {
		t.Fatal("empty sharded server has a wake time")
	}
	late := validTask()
	late.Area = geo.Circle{Center: geo.UniversityGym, RadiusM: 400}
	late.Start = simclock.Epoch.Add(time.Hour)
	late.End = late.Start.Add(time.Hour)
	if _, err := s.SubmitTask(late, simclock.Epoch, func(TaskID, string, sensors.Reading) {}); err != nil {
		t.Fatal(err)
	}
	early := validTask()
	early.Area = geo.Circle{Center: geo.Offset(geo.UniversityGym, 0, 5000), RadiusM: 400}
	if _, err := s.SubmitTask(early, simclock.Epoch, func(TaskID, string, sensors.Reading) {}); err != nil {
		t.Fatal(err)
	}
	next, ok := s.NextWake()
	if !ok || !next.Equal(simclock.Epoch) {
		t.Fatalf("NextWake = %v/%v, want epoch (the earlier shard)", next, ok)
	}
	if s.Shards() != 2 {
		t.Fatalf("Shards = %d, want 2", s.Shards())
	}
	if s.RegionName(0) != "west" || s.RegionName(99) != "" {
		t.Fatal("RegionName misbehaves")
	}
}

func TestShardSelectionScansOnlyHomeShardDevices(t *testing.T) {
	// The scalability point: a task's selection never touches devices
	// homed to other shards.
	s, d := newSharded(t)
	for i := 0; i < 5; i++ {
		dev := freshDevice(deviceName(i) + "-east")
		dev.Position = geo.Offset(geo.UniversityGym, 0, 5000)
		if err := s.RegisterDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	west := freshDevice("west-only")
	west.Position = geo.UniversityGym
	if err := s.RegisterDevice(west); err != nil {
		t.Fatal(err)
	}

	task := validTask()
	task.Area = geo.Circle{Center: geo.UniversityGym, RadiusM: 500}
	task.SpatialDensity = 1
	if _, err := s.SubmitTask(task, simclock.Epoch, func(TaskID, string, sensors.Reading) {}); err != nil {
		t.Fatal(err)
	}
	s.ProcessDue(simclock.Epoch)
	for _, c := range d.calls {
		if c.dev.ID != "west-only" {
			t.Fatalf("west task dispatched to %s", c.dev.ID)
		}
	}
	if len(d.calls) == 0 {
		t.Fatal("west task never dispatched")
	}
}
