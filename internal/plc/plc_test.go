package plc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mms"
	"repro/internal/modbus"
	"repro/internal/netem"
)

const samplePLCopen = `<?xml version="1.0" encoding="utf-8"?>
<project xmlns="http://www.plcopen.org/xml/tc6_0201">
  <fileHeader companyName="SG-ML" productName="test"/>
  <types>
    <pous>
      <pou name="Main" pouType="program">
        <interface>
          <inputVars>
            <variable name="Voltage"><type><REAL/></type></variable>
          </inputVars>
          <outputVars>
            <variable name="TripCmd"><type><BOOL/></type></variable>
          </outputVars>
          <localVars>
            <variable name="Threshold"><type><REAL/></type><initialValue><simpleValue value="1.10"/></initialValue></variable>
          </localVars>
        </interface>
        <body>
          <ST>
            <xhtml>
TripCmd := Voltage &gt; Threshold;
            </xhtml>
          </ST>
        </body>
      </pou>
    </pous>
  </types>
</project>`

func TestParsePLCopen(t *testing.T) {
	name, src, err := ParsePLCopen([]byte(samplePLCopen))
	if err != nil {
		t.Fatal(err)
	}
	if name != "Main" {
		t.Errorf("name = %q", name)
	}
	for _, want := range []string{"VAR_INPUT", "Voltage : REAL", "TripCmd : BOOL", "Threshold : REAL := 1.10", "TripCmd := Voltage > Threshold"} {
		if !strings.Contains(src, want) {
			t.Errorf("source missing %q:\n%s", want, src)
		}
	}
}

func TestParsePLCopenErrors(t *testing.T) {
	cases := []string{
		"not xml",
		"<other/>",
		`<project><types><pous><pou name="x" pouType="program"><body/></pou></pous></types></project>`,
		`<project><types><pous/></types></project>`,
	}
	for i, c := range cases {
		if _, _, err := ParsePLCopen([]byte(c)); !errors.Is(err, ErrPLCopen) {
			t.Errorf("case %d err = %v", i, err)
		}
	}
}

func TestBuildPLCopenRoundTrip(t *testing.T) {
	src := "VAR x : INT; END_VAR\nx := x + 1;"
	data, err := BuildPLCopen("CPLC", src)
	if err != nil {
		t.Fatal(err)
	}
	name, got, err := ParsePLCopen(data)
	if err != nil {
		t.Fatal(err)
	}
	if name != "CPLC" || !strings.Contains(got, "x := x + 1;") {
		t.Errorf("round trip: name=%q src=%q", name, got)
	}
}

// rig builds a LAN with an IED host (MMS server), a PLC host and a SCADA host.
type rig struct {
	net   *netem.Network
	ied   *netem.Host
	plc   *netem.Host
	scada *netem.Host
	srv   *mms.Server
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
	ied := mk("ied1", 1)
	plcHost := mk("cplc", 2)
	scada := mk("scada", 3)
	for i, h := range []*netem.Host{ied, plcHost, scada} {
		if _, err := n.Connect(h.Name(), 0, "sw", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	srv := mms.NewServer("SGML", "vIED")
	srv.Define("LD0/MMXU1.PhV.phsA", mms.NewFloat(1.0))
	srv.OnWrite("LD0/XCBR1.Pos.Oper", mms.NewBool(true), func(_ mms.ObjectReference, _ mms.Value) error { return nil })
	if err := srv.Serve(ied, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &rig{net: n, ied: ied, plc: plcHost, scada: scada, srv: srv}
}

const tripLogic = `
VAR_INPUT voltage : REAL; END_VAR
VAR_OUTPUT breakerClose : BOOL := TRUE; END_VAR
VAR manualOpen : BOOL; threshold : REAL := 1.10; END_VAR
breakerClose := voltage <= threshold AND NOT manualOpen;
`

func newPLC(t *testing.T, r *rig) *PLC {
	t.Helper()
	p, err := New(r.plc, Config{
		Name: "CPLC",
		Inputs: []MMSBinding{
			{Var: "voltage", IED: "ied1", Ref: "LD0/MMXU1.PhV.phsA"},
		},
		Outputs: []MMSBinding{
			{Var: "breakerClose", IED: "ied1", Ref: "LD0/XCBR1.Pos.Oper"},
		},
		Expose: []ModbusBinding{
			{Var: "voltage", Kind: ExposeInputReg, Addr: 0, Scale: 1000},
			{Var: "breakerClose", Kind: ExposeDiscrete, Addr: 0},
		},
		Commands: []CommandBinding{{Coil: 0, Var: "manualOpen"}},
	}, tripLogic)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectIED("ied1", r.ied.IP(), 0); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScanReadsExecutesWrites(t *testing.T) {
	r := newRig(t)
	p := newPLC(t, r)
	defer p.Stop()
	if err := p.Serve(); err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(time.Now()); err != nil {
		t.Fatal(err)
	}
	// Normal voltage: logic keeps breaker closed; exposed northbound.
	if got := p.Modbus().Holding(0); got != 0 {
		t.Errorf("holding = %d", got)
	}
	v, _ := p.Env().Get("VOLTAGE")
	if v.AsReal() != 1.0 {
		t.Errorf("voltage var = %v", v)
	}
	// Raise the measured voltage beyond threshold: the scan must trip.
	r.srv.Update("LD0/MMXU1.PhV.phsA", mms.NewFloat(1.25))
	if err := p.Scan(time.Now()); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.srv.Get("LD0/XCBR1.Pos.Oper"); got.Bool {
		t.Error("IED did not receive breaker-open write")
	}
	scans, mean, readErrs, writeErrs := p.Stats()
	if scans != 2 || mean <= 0 || readErrs != 0 || writeErrs != 0 {
		t.Errorf("stats = %d scans, %v, %d/%d errs", scans, mean, readErrs, writeErrs)
	}
}

func TestWriteOnChangeOnly(t *testing.T) {
	r := newRig(t)
	p := newPLC(t, r)
	defer p.Stop()
	for i := 0; i < 5; i++ {
		if err := p.Scan(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	_, writes := r.srv.Stats()
	if writes != 1 {
		t.Errorf("IED writes = %d, want 1 (write-on-change)", writes)
	}
}

func TestSCADACommandViaModbus(t *testing.T) {
	r := newRig(t)
	p := newPLC(t, r)
	defer p.Stop()
	if err := p.Serve(); err != nil {
		t.Fatal(err)
	}
	p.Scan(time.Now())

	cli, err := modbus.DialClient(r.scada, r.plc.IP(), 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// SCADA reads the exposed measurement.
	regs, err := cli.ReadInput(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if regs[0] != 1000 { // 1.0 pu * 1000
		t.Errorf("input reg = %d", regs[0])
	}
	st, err := cli.ReadDiscreteInputs(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st[0] {
		t.Error("breaker status should be closed")
	}
	// SCADA commands a manual open via coil 0.
	if err := cli.WriteCoil(0, true); err != nil {
		t.Fatal(err)
	}
	p.Scan(time.Now())
	if got, _ := r.srv.Get("LD0/XCBR1.Pos.Oper"); got.Bool {
		t.Error("manual open command not propagated to IED")
	}
	st, _ = cli.ReadDiscreteInputs(0, 1)
	if st[0] {
		t.Error("exposed breaker status still closed")
	}
}

func TestReadErrorsCounted(t *testing.T) {
	r := newRig(t)
	p, err := New(r.plc, Config{
		Inputs: []MMSBinding{{Var: "voltage", IED: "ied1", Ref: "LD0/Ghost.ref"}},
	}, `VAR_INPUT voltage : REAL; END_VAR ;`)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := p.ConnectIED("ied1", r.ied.IP(), 0); err != nil {
		t.Fatal(err)
	}
	p.Scan(time.Now())
	_, _, readErrs, _ := p.Stats()
	if readErrs != 1 {
		t.Errorf("readErrs = %d", readErrs)
	}
	// Unconnected IED also counts.
	p2, err := New(r.plc, Config{
		Inputs: []MMSBinding{{Var: "voltage", IED: "ghost", Ref: "LD0/X.y"}},
	}, `VAR_INPUT voltage : REAL; END_VAR ;`)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Stop()
	p2.Scan(time.Now())
	_, _, readErrs, _ = p2.Stats()
	if readErrs != 1 {
		t.Errorf("unconnected readErrs = %d", readErrs)
	}
}

func TestBindingValidation(t *testing.T) {
	r := newRig(t)
	cases := []Config{
		{Inputs: []MMSBinding{{Var: "ghost", IED: "a", Ref: "x/y"}}},
		{Outputs: []MMSBinding{{Var: "ghost", IED: "a", Ref: "x/y"}}},
		{Expose: []ModbusBinding{{Var: "ghost", Kind: ExposeDiscrete}}},
		{Commands: []CommandBinding{{Coil: 0, Var: "ghost"}}},
	}
	for i, cfg := range cases {
		if _, err := New(r.plc, cfg, `VAR a : INT; END_VAR ;`); !errors.Is(err, ErrUnknownVar) {
			t.Errorf("case %d err = %v", i, err)
		}
	}
	if _, err := New(r.plc, Config{}, `garbage !!`); err == nil {
		t.Error("bad ST accepted")
	}
}

func TestValueConversions(t *testing.T) {
	if got := mmsToST(mms.NewFloat(2.0), 0.5); got.AsReal() != 1.0 {
		t.Errorf("scaled float = %v", got)
	}
	if got := mmsToST(mms.NewInt(7), 1); got.AsInt() != 7 {
		t.Errorf("int = %v", got)
	}
	if got := mmsToST(mms.NewBool(true), 1); !got.AsBool() {
		t.Errorf("bool = %v", got)
	}
	if got := toRegister(-5); got != 0 {
		t.Errorf("negative clamp = %d", got)
	}
	if got := toRegister(1e9); got != 65535 {
		t.Errorf("overflow clamp = %d", got)
	}
	if got := toRegister(1020.4); got != 1020 {
		t.Errorf("round = %d", got)
	}
}
