package scada

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mms"
	"repro/internal/modbus"
	"repro/internal/netem"
	"repro/internal/sgmlconf"
)

// rig: PLC host with a Modbus server, IED host with an MMS server, HMI host.
type rig struct {
	hmiHost *netem.Host
	mb      *modbus.Server
	mmsSrv  *mms.Server
}

func newRig(t *testing.T) *rig {
	t.Helper()
	n := netem.NewNetwork()
	if _, err := netem.NewSwitch(n, "sw", 4); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, last byte) *netem.Host {
		h, err := netem.NewHost(n, name, netem.MAC{2, 0, 0, 0, 0, last}, netem.IPv4{10, 0, 0, last})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	plc := mk("cplc", 1)
	ied := mk("gied1", 2)
	hmi := mk("scada", 3)
	for i, h := range []*netem.Host{plc, ied, hmi} {
		if _, err := n.Connect(h.Name(), 0, "sw", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	mb := modbus.NewServer(16, 16, 32, 32)
	if err := mb.Serve(plc, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mb.Close)
	mmsSrv := mms.NewServer("SGML", "vIED")
	mmsSrv.Define("LD0/MMXU1.A.phsA", mms.NewFloat(0.2))
	mmsSrv.OnWrite("LD0/XCBR1.Pos.Oper", mms.NewBool(true), func(_ mms.ObjectReference, _ mms.Value) error { return nil })
	if err := mmsSrv.Serve(ied, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mmsSrv.Close)
	return &rig{hmiHost: hmi, mb: mb, mmsSrv: mmsSrv}
}

func testImport() *sgmlconf.ScadaImport {
	return &sgmlconf.ScadaImport{
		DataSources: []sgmlconf.ScadaImportSource{
			{XID: "DS_cplc", Name: "cplc", Type: "MODBUS_IP", IP: "10.0.0.1", Port: 502, UpdatePeriodMS: 50, Enabled: true},
			{XID: "DS_gied1", Name: "gied1", Type: "MMS", IP: "10.0.0.2", Port: 102, UpdatePeriodMS: 100, Enabled: true},
		},
		DataPoints: []sgmlconf.ScadaImportPoint{
			{XID: "DP_volt", Name: "MainVoltage", DataSourceXID: "DS_cplc", PointLocator: "30001",
				DataType: "NUMERIC", Multiplier: 0.001, AlarmEnabled: true, AlarmLowLimit: 0.9, AlarmHighLimit: 1.1},
			{XID: "DP_cb", Name: "CB1Status", DataSourceXID: "DS_cplc", PointLocator: "10001", DataType: "BINARY"},
			{XID: "DP_cmd", Name: "CB1Cmd", DataSourceXID: "DS_cplc", PointLocator: "1",
				DataType: "BINARY", SettableEnabled: true},
			{XID: "DP_sp", Name: "LoadSetpoint", DataSourceXID: "DS_cplc", PointLocator: "40001",
				DataType: "NUMERIC", SettableEnabled: true},
			{XID: "DP_amps", Name: "FeederCurrent", DataSourceXID: "DS_gied1",
				PointLocator: "LD0/MMXU1.A.phsA", DataType: "NUMERIC"},
			{XID: "DP_oper", Name: "BreakerOper", DataSourceXID: "DS_gied1",
				PointLocator: "LD0/XCBR1.Pos.Oper", DataType: "BINARY", SettableEnabled: true},
		},
	}
}

func newHMI(t *testing.T, r *rig) *HMI {
	t.Helper()
	h, err := New(r.hmiHost, testImport())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	h.Connect()
	return h
}

func TestPollReadsModbusAndMMS(t *testing.T) {
	r := newRig(t)
	r.mb.SetInput(0, 1020) // 1.02 pu * 1000
	r.mb.SetDiscrete(0, true)
	h := newHMI(t, r)
	h.PollOnce()

	volt, err := h.Point("DP_volt")
	if err != nil {
		t.Fatal(err)
	}
	if volt.Quality != QualityGood || volt.Value != 1.02 {
		t.Errorf("voltage = %+v", volt)
	}
	cb, _ := h.Point("DP_cb")
	if !cb.Binary || !cb.IsBinary {
		t.Errorf("breaker status = %+v", cb)
	}
	amps, _ := h.Point("DP_amps")
	if amps.Value != 0.2 {
		t.Errorf("MMS point = %+v", amps)
	}
	if h.Polls() != 1 {
		t.Errorf("polls = %d", h.Polls())
	}
}

func TestAlarmLifecycle(t *testing.T) {
	r := newRig(t)
	h := newHMI(t, r)
	r.mb.SetInput(0, 1020)
	h.PollOnce()
	if alarms := h.ActiveAlarms(); len(alarms) != 0 {
		t.Fatalf("alarms at nominal = %v", alarms)
	}
	// Voltage sags below the low limit.
	r.mb.SetInput(0, 850)
	h.PollOnce()
	if alarms := h.ActiveAlarms(); len(alarms) != 1 || alarms[0] != "DP_volt" {
		t.Fatalf("alarms = %v", alarms)
	}
	// Recovery clears it.
	r.mb.SetInput(0, 1000)
	h.PollOnce()
	if alarms := h.ActiveAlarms(); len(alarms) != 0 {
		t.Fatalf("alarms after recovery = %v", alarms)
	}
	var raised, cleared bool
	for _, e := range h.Events() {
		switch e.Kind {
		case EventAlarmRaised:
			raised = true
		case EventAlarmCleared:
			cleared = true
		}
	}
	if !raised || !cleared {
		t.Errorf("events = %+v", h.Events())
	}
}

func TestOperatorControl(t *testing.T) {
	r := newRig(t)
	h := newHMI(t, r)
	// Coil command to the PLC.
	if err := h.Control("DP_cmd", 1); err != nil {
		t.Fatal(err)
	}
	if !r.mb.Coil(0) {
		t.Error("coil not written")
	}
	// Holding-register setpoint.
	if err := h.Control("DP_sp", 42); err != nil {
		t.Fatal(err)
	}
	if r.mb.Holding(0) != 42 {
		t.Error("register not written")
	}
	// MMS control write to the IED.
	if err := h.Control("DP_oper", 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.mmsSrv.Get("LD0/XCBR1.Pos.Oper"); v.Bool {
		t.Error("MMS operate not written")
	}
	// Guard rails.
	if err := h.Control("DP_volt", 1); !errors.Is(err, ErrNotSettable) {
		t.Errorf("read-only control err = %v", err)
	}
	if err := h.Control("ghost", 1); !errors.Is(err, ErrUnknownPoint) {
		t.Errorf("unknown point err = %v", err)
	}
	ops := 0
	for _, e := range h.Events() {
		if e.Kind == EventOperator {
			ops++
		}
	}
	if ops != 3 {
		t.Errorf("operator events = %d", ops)
	}
}

func TestCommFailAndRestore(t *testing.T) {
	r := newRig(t)
	h := newHMI(t, r)
	h.PollOnce()
	if p, _ := h.Point("DP_volt"); p.Quality != QualityGood {
		t.Fatalf("initial quality = %v", p.Quality)
	}
	// PLC dies.
	r.mb.Close()
	h.PollOnce()
	h.PollOnce()
	if p, _ := h.Point("DP_volt"); p.Quality != QualityCommFail {
		t.Errorf("quality after server death = %v", p.Quality)
	}
	var sawFail bool
	for _, e := range h.Events() {
		if e.Kind == EventCommFail {
			sawFail = true
		}
	}
	if !sawFail {
		t.Error("no comm-fail event")
	}
	// MMS source is unaffected.
	if p, _ := h.Point("DP_amps"); p.Quality != QualityGood {
		t.Errorf("MMS point quality = %v", p.Quality)
	}
}

func TestStatusPanel(t *testing.T) {
	r := newRig(t)
	r.mb.SetInput(0, 850)
	r.mb.SetDiscrete(0, true)
	h := newHMI(t, r)
	h.PollOnce()
	panel := h.StatusPanel()
	for _, want := range []string{"MainVoltage", "** ALARM **", "CB1Status", "ON", "active alarms: 1", "GOOD"} {
		if !strings.Contains(panel, want) {
			t.Errorf("panel missing %q:\n%s", want, panel)
		}
	}
}

func TestStatusPanelDiagnosticsFooter(t *testing.T) {
	r := newRig(t)
	h := newHMI(t, r)
	h.PollOnce()
	if strings.Contains(h.StatusPanel(), "data plane:") {
		t.Fatal("diagnostics shown before a provider is installed")
	}
	h.SetDiagnostics(func() string {
		return "data plane: 42 frames transmitted, 0 dropped, pool hit rate 97%\n"
	})
	panel := h.StatusPanel()
	if !strings.Contains(panel, "data plane: 42 frames transmitted, 0 dropped, pool hit rate 97%") {
		t.Errorf("panel missing diagnostics footer:\n%s", panel)
	}
}

func TestModbusLocatorParsing(t *testing.T) {
	tests := []struct {
		loc   string
		table int
		addr  uint16
		ok    bool
	}{
		{"1", 0, 0, true},
		{"9", 0, 8, true},
		{"10001", 1, 0, true},
		{"10005", 1, 4, true},
		{"30001", 3, 0, true},
		{"30010", 3, 9, true},
		{"40001", 4, 0, true},
		{"0", 0, 0, true},
		{"99999", 0, 0, false},
		{"abc", 0, 0, false},
		{"-1", 0, 0, false},
	}
	for _, tt := range tests {
		table, addr, err := splitModbusLocator(tt.loc)
		if (err == nil) != tt.ok {
			t.Errorf("locator %q err = %v", tt.loc, err)
			continue
		}
		if tt.ok && (table != tt.table || addr != tt.addr) {
			t.Errorf("locator %q = (%d, %d), want (%d, %d)", tt.loc, table, addr, tt.table, tt.addr)
		}
	}
}

func TestNewRejectsOrphanPoints(t *testing.T) {
	imp := &sgmlconf.ScadaImport{
		DataPoints: []sgmlconf.ScadaImportPoint{{XID: "p", DataSourceXID: "ghost"}},
	}
	n := netem.NewNetwork()
	h, _ := netem.NewHost(n, "h", netem.MAC{2}, netem.IPv4{10})
	if _, err := New(h, imp); err == nil {
		t.Error("orphan point accepted")
	}
}

// TestPollDueStepClock drives three Modbus sources, each on its own server,
// at 100 ms steps from a fixed epoch: each is read on the first step and then
// on the first step at least its update period after its last read, so the
// server request counts follow the step clock and not the wall clock.
func TestPollDueStepClock(t *testing.T) {
	n := netem.NewNetwork()
	if _, err := netem.NewSwitch(n, "sw", 4); err != nil {
		t.Fatal(err)
	}
	periods := []int{0, 1000, 1500}
	hosts := make([]*netem.Host, len(periods)+1)
	for i := range hosts {
		h, err := netem.NewHost(n, fmt.Sprintf("h%d", i), netem.MAC{2, 0, 0, 0, 0, byte(i + 1)}, netem.IPv4{10, 0, 0, byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Connect(h.Name(), 0, "sw", i, 0); err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	imp := &sgmlconf.ScadaImport{}
	servers := make([]*modbus.Server, len(periods))
	for i, ms := range periods {
		servers[i] = modbus.NewServer(4, 4, 4, 4)
		if err := servers[i].Serve(hosts[i], 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(servers[i].Close)
		xid := fmt.Sprintf("DS_%d", ms)
		imp.DataSources = append(imp.DataSources, sgmlconf.ScadaImportSource{
			XID: xid, Type: "MODBUS_IP", IP: fmt.Sprintf("10.0.0.%d", i+1), Port: 502, UpdatePeriodMS: ms, Enabled: true})
		imp.DataPoints = append(imp.DataPoints, sgmlconf.ScadaImportPoint{
			XID: fmt.Sprintf("DP_%d", ms), DataSourceXID: xid, PointLocator: "30001", DataType: "NUMERIC"})
	}
	h, err := New(hosts[len(periods)], imp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	h.Connect()

	const steps = 31
	epoch := time.Unix(1700000000, 0)
	for i := 0; i < steps; i++ {
		h.PollDue(epoch.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	// Period 0 reads every step; 1000 ms at steps 0, 10, 20, 30; 1500 ms at
	// steps 0, 15, 30.
	for i, want := range []uint64{steps, 4, 3} {
		if got := servers[i].Requests(); got != want {
			t.Errorf("source with period %d ms: %d reads in %d steps, want %d", periods[i], got, steps, want)
		}
	}
	if h.Polls() != steps {
		t.Errorf("polls = %d, want %d", h.Polls(), steps)
	}
}
