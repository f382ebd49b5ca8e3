package senseaid

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"senseaid/internal/obs"
)

// TestBinariesEndToEnd builds the three deployable binaries and runs them
// together: senseaidd serves, senseaid-client answers schedules, and
// senseaid-cas submits a fast task and prints readings — the same flow an
// operator would run by hand.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test builds and runs executables")
	}
	bin := t.TempDir()
	for _, tool := range []string{"senseaidd", "senseaid-client", "senseaid-cas"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	// Binary is the only wire codec: -codec json refuses to start, and
	// says what it would take.
	out, err := exec.Command(filepath.Join(bin, "senseaidd"), "-addr", "127.0.0.1:0", "-codec", "json").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "binary") {
		t.Fatalf("senseaidd -codec json: %v, output %q; want a non-zero exit naming binary", err, out)
	}

	addr := freeAddr(t)
	metricsAddr := freeAddr(t)

	// Start the server with its admin endpoint and profiling enabled.
	server := exec.Command(filepath.Join(bin, "senseaidd"),
		"-addr", addr, "-metrics-addr", metricsAddr, "-tick", "50ms", "-pprof")
	serverOut := startCapture(t, server, "senseaidd")
	defer stop(t, server)
	waitForLine(t, serverOut, "listening", 10*time.Second)
	waitForLine(t, serverOut, "admin endpoint", 10*time.Second)

	if code, _ := httpGet(t, "http://"+metricsAddr+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if code, _ := httpGet(t, "http://"+metricsAddr+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 after the listener is up", code)
	}
	_, baseline := httpGet(t, "http://"+metricsAddr+"/metrics")
	tailBefore := sampleValue(baseline, `senseaid_uploads_total{path="tail"}`)

	// Start a device.
	device := exec.Command(filepath.Join(bin, "senseaid-client"),
		"-addr", addr, "-id", "smoke-phone", "-report", "100ms")
	deviceOut := startCapture(t, device, "senseaid-client")
	defer stop(t, device)
	waitForLine(t, deviceOut, "online", 10*time.Second)

	// Run a short campaign to completion.
	casCmd := exec.Command(filepath.Join(bin, "senseaid-cas"),
		"-addr", addr, "-period", "300ms", "-duration", "2s", "-density", "1")
	out, err = casCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("senseaid-cas: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "task task-") {
		t.Fatalf("cas output missing task submission:\n%s", text)
	}
	if !strings.Contains(text, "from smoke-phone") {
		t.Fatalf("cas output has no readings from the device:\n%s", text)
	}
	if strings.Contains(text, "collected 0 readings") {
		t.Fatalf("campaign collected nothing:\n%s", text)
	}

	// The admin endpoint must reflect the session that just ran: uploads
	// rode tail windows (the client reports every 100 ms, so the radio
	// tail never lapses) and the RPC latency series moved.
	code, body := httpGet(t, "http://"+metricsAddr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	if err := obs.CheckText(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v\n%s", err, body)
	}
	tailAfter := sampleValue(body, `senseaid_uploads_total{path="tail"}`)
	if tailAfter <= tailBefore {
		t.Fatalf("uploads_total{path=tail} did not increase: before=%v after=%v\n%s",
			tailBefore, tailAfter, body)
	}
	if v := sampleValue(body, `senseaid_rpc_seconds_count{role="device",type="send_sense_data"}`); v <= 0 {
		t.Fatalf("rpc_seconds_count{send_sense_data} = %v, want > 0\n%s", v, body)
	}
	if v := sampleValue(body, `senseaid_rpc_seconds_count{role="cas",type="task"}`); v <= 0 {
		t.Fatalf("rpc_seconds_count{task} = %v, want > 0\n%s", v, body)
	}

	code, status := httpGet(t, "http://"+metricsAddr+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz = %d, want 200", code)
	}
	if !strings.Contains(status, "uptime_seconds") {
		t.Fatalf("/statusz missing uptime:\n%s", status)
	}

	// Runtime gauges from the pprof/runtime satellite.
	if v := sampleValue(body, "senseaid_go_goroutines"); v <= 0 {
		t.Fatalf("senseaid_go_goroutines = %v, want > 0", v)
	}
	if v := sampleValue(body, "senseaid_go_heap_bytes"); v <= 0 {
		t.Fatalf("senseaid_go_heap_bytes = %v, want > 0", v)
	}

	// Admin responses must defeat caches and declare their types.
	for path, wantCT := range map[string]string{
		"/metrics": "text/plain; version=0.0.4; charset=utf-8",
		"/statusz": "application/json; charset=utf-8",
		"/traces":  "application/json; charset=utf-8",
	} {
		_, hdr, _ := httpGetFull(t, "http://"+metricsAddr+path)
		if cc := hdr.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", path, cc)
		}
		if ct := hdr.Get("Content-Type"); ct != wantCT {
			t.Errorf("%s Content-Type = %q, want %q", path, ct, wantCT)
		}
	}

	// -pprof mounted the profiling mux.
	if code, _ := httpGet(t, "http://"+metricsAddr+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d, want 200 with -pprof", code)
	}

	// The campaign that just ran must have left a complete end-to-end
	// trace in the ring with every stage timed...
	_, tracesBody := httpGet(t, "http://"+metricsAddr+"/traces")
	var traces []struct {
		TraceID  string `json:"trace_id"`
		Complete bool   `json:"complete"`
		Spans    []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(tracesBody), &traces); err != nil {
		t.Fatalf("decode /traces: %v\n%s", err, tracesBody)
	}
	wantStages := []string{"submit", "schedule", "select", "dispatch", "upload", "deliver"}
	foundComplete := false
	for _, tr := range traces {
		if !tr.Complete {
			continue
		}
		seen := map[string]bool{}
		for _, sp := range tr.Spans {
			seen[sp.Name] = true
		}
		all := true
		for _, st := range wantStages {
			all = all && seen[st]
		}
		if all {
			foundComplete = true
			break
		}
	}
	if !foundComplete {
		t.Fatalf("/traces has no complete trace covering all stages %v:\n%s", wantStages, tracesBody)
	}
	for _, st := range wantStages {
		if v := sampleValue(body, fmt.Sprintf(`senseaid_stage_seconds_count{stage=%q}`, st)); v <= 0 {
			t.Fatalf("senseaid_stage_seconds_count{stage=%q} = %v, want > 0", st, v)
		}
	}

	// ...and a full lifecycle timeline, in order, with monotone stamps.
	_, tasksBody := httpGet(t, "http://"+metricsAddr+"/tasks")
	var taskList struct {
		Tasks []string `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(tasksBody), &taskList); err != nil || len(taskList.Tasks) == 0 {
		t.Fatalf("decode /tasks (err %v):\n%s", err, tasksBody)
	}
	_, tlBody := httpGet(t, "http://"+metricsAddr+"/tasks?id="+taskList.Tasks[0])
	var tl struct {
		TaskID  string `json:"task_id"`
		TraceID string `json:"trace_id"`
		Events  []struct {
			Stage string    `json:"stage"`
			At    time.Time `json:"at"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(tlBody), &tl); err != nil {
		t.Fatalf("decode /tasks?id=%s: %v\n%s", taskList.Tasks[0], err, tlBody)
	}
	if tl.TraceID == "" {
		t.Errorf("timeline for %s has no trace_id:\n%s", tl.TaskID, tlBody)
	}
	wantEvents := []string{"submitted", "scheduled", "selected", "dispatched", "uploaded", "delivered"}
	idx := 0
	var last time.Time
	for _, ev := range tl.Events {
		if ev.At.Before(last) {
			t.Errorf("timeline event %s at %v precedes prior event at %v", ev.Stage, ev.At, last)
		}
		last = ev.At
		if idx < len(wantEvents) && ev.Stage == wantEvents[idx] {
			idx++
		}
	}
	if idx != len(wantEvents) {
		t.Fatalf("timeline missing lifecycle stages (matched %d/%d of %v):\n%s",
			idx, len(wantEvents), wantEvents, tlBody)
	}
}

// TestShardedBinaryEndToEnd boots senseaidd with two -regions flags and
// runs the same operator flow: the task lands on the shard covering its
// area (its ID carries the region name), readings flow back, and the
// admin endpoint exposes per-shard scheduler series.
func TestShardedBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test builds and runs executables")
	}
	bin := t.TempDir()
	for _, tool := range []string{"senseaidd", "senseaid-client", "senseaid-cas"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	addr := freeAddr(t)
	metricsAddr := freeAddr(t)

	// West covers the default client/CAS position (the CS department);
	// east sits a few km away with no devices.
	server := exec.Command(filepath.Join(bin, "senseaidd"),
		"-addr", addr, "-metrics-addr", metricsAddr, "-tick", "50ms",
		"-regions", "west@40.4274,-86.9169,1500",
		"-regions", "east@40.4274,-86.8600,1500")
	serverOut := startCapture(t, server, "senseaidd")
	defer stop(t, server)
	waitForLine(t, serverOut, "listening", 10*time.Second)
	waitForLine(t, serverOut, "edge region west", 10*time.Second)
	waitForLine(t, serverOut, "edge region east", 10*time.Second)

	device := exec.Command(filepath.Join(bin, "senseaid-client"),
		"-addr", addr, "-id", "shard-phone", "-report", "100ms")
	deviceOut := startCapture(t, device, "senseaid-client")
	defer stop(t, device)
	waitForLine(t, deviceOut, "online", 10*time.Second)

	casCmd := exec.Command(filepath.Join(bin, "senseaid-cas"),
		"-addr", addr, "-period", "300ms", "-duration", "2s", "-density", "1")
	out, err := casCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("senseaid-cas: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "task west/task-") {
		t.Fatalf("cas output missing region-qualified task ID:\n%s", text)
	}
	if !strings.Contains(text, "from shard-phone") {
		t.Fatalf("cas output has no readings from the device:\n%s", text)
	}

	code, body := httpGet(t, "http://"+metricsAddr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	if err := obs.CheckText(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v\n%s", err, body)
	}
	for _, series := range []string{
		`senseaid_registered_devices{shard="west"}`,
		`senseaid_registered_devices{shard="east"}`,
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing per-shard series %s:\n%s", series, body)
		}
	}
	if v := sampleValue(body, `senseaid_registered_devices{shard="west"}`); v != 1 {
		t.Fatalf("west shard devices = %v, want 1\n%s", v, body)
	}

	// Profiling endpoints stay dark unless -pprof asked for them.
	if code, _ := httpGet(t, "http://"+metricsAddr+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ = %d without -pprof, want 404", code)
	}
}

// TestLoadgenTraceSharded is the acceptance run for end-to-end tracing:
// senseaid-loadgen drives a sharded senseaidd over real TCP with -trace,
// which fails unless the server's /traces ring holds at least one
// complete submit→delivery trace — a journey crossing the CAS
// connection, a regional scheduling core, and a device connection — and
// the per-stage histograms must have samples for every stage.
func TestLoadgenTraceSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test builds and runs executables")
	}
	bin := t.TempDir()
	for _, tool := range []string{"senseaidd", "senseaid-loadgen"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	addr := freeAddr(t)
	metricsAddr := freeAddr(t)
	server := exec.Command(filepath.Join(bin, "senseaidd"),
		"-addr", addr, "-metrics-addr", metricsAddr, "-tick", "50ms",
		"-regions", "west@40.4274,-86.9169,3000",
		"-regions", "east@40.4274,-86.8000,3000")
	serverOut := startCapture(t, server, "senseaidd")
	defer stop(t, server)
	waitForLine(t, serverOut, "listening", 10*time.Second)
	waitForLine(t, serverOut, "admin endpoint", 10*time.Second)

	loadgen := exec.Command(filepath.Join(bin, "senseaid-loadgen"),
		"-addr", addr, "-devices", "8", "-tasks", "1", "-density", "2",
		"-period", "300ms", "-duration", "3s", "-spread", "500",
		"-report", "500ms", "-min-selections", "1",
		"-metrics-url", "http://"+metricsAddr+"/metrics", "-trace")
	out, err := loadgen.CombinedOutput()
	if err != nil {
		// -trace makes loadgen exit nonzero when no complete trace landed.
		t.Fatalf("senseaid-loadgen -trace: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "complete") {
		t.Fatalf("loadgen trace summary missing completion count:\n%s", text)
	}
	for _, st := range []string{"submit", "schedule", "select", "dispatch", "upload", "deliver"} {
		if !strings.Contains(text, "stage "+st) {
			t.Errorf("loadgen trace summary missing stage %q:\n%s", st, text)
		}
	}

	// Server-side: every stage histogram saw samples, and the sharded
	// trace records carry the owning region.
	_, body := httpGet(t, "http://"+metricsAddr+"/metrics")
	for _, st := range []string{"submit", "schedule", "select", "dispatch", "upload", "deliver"} {
		if v := sampleValue(body, fmt.Sprintf(`senseaid_stage_seconds_count{stage=%q}`, st)); v <= 0 {
			t.Fatalf("senseaid_stage_seconds_count{stage=%q} = %v, want > 0\n%s", st, v, body)
		}
	}
	_, tracesBody := httpGet(t, "http://"+metricsAddr+"/traces")
	if !strings.Contains(tracesBody, `"region": "west"`) {
		t.Errorf("/traces has no span tagged with the west region:\n%s", tracesBody)
	}
}

// TestCrashRestartBinaryEndToEnd is the durability story at the process
// level: senseaidd runs with -state-dir, a campaign gets going, the
// server is SIGKILLed mid-campaign, and a fresh senseaidd on the same
// address and state directory picks the campaign back up — the device
// client's reconnect supervisor redials, and the CAS (running with
// -retry-reconnect) reclaims its original task instead of scheduling a
// twin.
func TestCrashRestartBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test builds and runs executables")
	}
	bin := t.TempDir()
	for _, tool := range []string{"senseaidd", "senseaid-client", "senseaid-cas"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	// The listen address must survive the restart (clients redial it);
	// the admin endpoint gets a fresh port per incarnation.
	addr := freeAddr(t)
	stateDir := t.TempDir()

	server := exec.Command(filepath.Join(bin, "senseaidd"),
		"-addr", addr, "-tick", "50ms",
		"-state-dir", stateDir, "-snapshot-interval", "200ms")
	serverOut := startCapture(t, server, "senseaidd-1")
	defer stop(t, server)
	waitForLine(t, serverOut, "listening", 10*time.Second)
	waitForLine(t, serverOut, "restarts 0", 10*time.Second)

	device := exec.Command(filepath.Join(bin, "senseaid-client"),
		"-addr", addr, "-id", "crash-phone", "-report", "100ms")
	deviceOut := startCapture(t, device, "senseaid-client")
	defer stop(t, device)
	waitForLine(t, deviceOut, "online", 10*time.Second)

	casCmd := exec.Command(filepath.Join(bin, "senseaid-cas"),
		"-addr", addr, "-retry-reconnect",
		"-period", "300ms", "-duration", "8s", "-density", "1")
	casOut := startCapture(t, casCmd, "senseaid-cas")
	defer stop(t, casCmd)
	waitForLine(t, casOut, "task task-", 10*time.Second)
	waitForLine(t, casOut, "from crash-phone", 10*time.Second)

	// kill -9 mid-campaign: no drain, no final snapshot.
	if err := server.Process.Kill(); err != nil {
		t.Fatalf("kill server: %v", err)
	}
	_, _ = server.Process.Wait()
	waitForLine(t, casOut, "server connection lost", 10*time.Second)

	metricsAddr := freeAddr(t)
	server2 := exec.Command(filepath.Join(bin, "senseaidd"),
		"-addr", addr, "-metrics-addr", metricsAddr, "-tick", "50ms",
		"-state-dir", stateDir, "-snapshot-interval", "200ms")
	server2Out := startCapture(t, server2, "senseaidd-2")
	defer stop(t, server2)
	waitForLine(t, server2Out, "restarts 1", 10*time.Second)
	if !server2Out.contains("replayed") {
		t.Fatalf("restart did not report replay:\n%s", server2Out.dump())
	}

	// The CAS must get its original task back, not a twin.
	waitForLine(t, casOut, "reclaimed", 15*time.Second)
	if casOut.contains("resubmitted as") {
		t.Fatalf("task was duplicated instead of reclaimed:\n%s", casOut.dump())
	}

	// The campaign runs to completion against the restarted server.
	casDone := make(chan error, 1)
	go func() { casDone <- casCmd.Wait() }()
	select {
	case err := <-casDone:
		if err != nil {
			t.Fatalf("senseaid-cas exited with %v:\n%s", err, casOut.dump())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("senseaid-cas never finished:\n%s", casOut.dump())
	}
	if !casOut.contains("collected") || casOut.contains("collected 0 readings") {
		t.Fatalf("campaign collected nothing after the restart:\n%s", casOut.dump())
	}

	_, body := httpGet(t, "http://"+metricsAddr+"/metrics")
	if v := sampleValue(body, "senseaid_restarts_total"); v != 1 {
		t.Fatalf("senseaid_restarts_total = %v, want 1\n%s", v, body)
	}
	if v := sampleValue(body, "senseaid_recovery_last_unix"); v <= 0 {
		t.Fatalf("senseaid_recovery_last_unix = %v, want > 0\n%s", v, body)
	}
	if v := sampleValue(body, `senseaid_recoveries_total{outcome="restored"}`); v != 1 {
		t.Fatalf(`senseaid_recoveries_total{outcome="restored"} = %v, want 1`+"\n%s", v, body)
	}
}

// httpGet fetches a URL and returns the status code and body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	code, _, body := httpGetFull(t, url)
	return code, body
}

// httpGetFull fetches a URL and also returns the response headers.
func httpGetFull(t *testing.T, url string) (int, http.Header, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// sampleValue extracts one sample's value from Prometheus text output;
// missing series read as 0 so before/after comparisons stay simple.
func sampleValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// freeAddr reserves a loopback port and releases it for the server.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// lineBuffer accumulates a process's output for polling.
type lineBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (b *lineBuffer) add(line string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, line)
}

func (b *lineBuffer) contains(substr string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func (b *lineBuffer) dump() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}

func startCapture(t *testing.T, cmd *exec.Cmd, name string) *lineBuffer {
	t.Helper()
	buf := &lineBuffer{}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			buf.add(fmt.Sprintf("[%s] %s", name, sc.Text()))
		}
	}()
	return buf
}

func waitForLine(t *testing.T, buf *lineBuffer, substr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !buf.contains(substr) {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %q; output so far:\n%s", substr, buf.dump())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func stop(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if cmd.Process == nil {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_, _ = cmd.Process.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		_ = cmd.Process.Kill()
	}
}
