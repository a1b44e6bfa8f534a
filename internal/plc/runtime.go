package plc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/mms"
	"repro/internal/modbus"
	"repro/internal/netem"
	"repro/internal/st"
)

// Runtime errors.
var (
	ErrUnknownVar = errors.New("plc: binding references unknown ST variable")
	ErrUnknownIED = errors.New("plc: binding references unconnected IED")
)

// MMSBinding couples an ST variable to an IED object over MMS.
type MMSBinding struct {
	Var   string // ST variable name (case-insensitive)
	IED   string // connection name registered via ConnectIED
	Ref   mms.ObjectReference
	Scale float64 // applied on read (value*Scale); inverse on write; 0 = 1
}

// ModbusKind selects which Modbus table a variable is exposed in.
type ModbusKind int

// Modbus exposure kinds.
const (
	ExposeInputReg ModbusKind = iota + 1 // analog measurement -> input register
	ExposeDiscrete                       // status bit -> discrete input
	ExposeHolding                        // analog setpoint <-> holding register
)

// ModbusBinding exposes an ST variable to SCADA.
type ModbusBinding struct {
	Var   string
	Kind  ModbusKind
	Addr  uint16
	Scale float64 // register = value * Scale (0 = 1)
}

// CommandBinding maps a SCADA coil write onto an ST variable.
type CommandBinding struct {
	Coil uint16
	Var  string
}

// Config assembles a PLC runtime.
type Config struct {
	Name string
	// Modbus table sizes; defaults 64/64/128/128.
	Coils, Discrete, Holding, Input int
	ModbusPort                      uint16

	Inputs   []MMSBinding     // IED measurement -> ST input var (each scan)
	Outputs  []MMSBinding     // ST output var -> IED control write (on change)
	Expose   []ModbusBinding  // ST var -> Modbus table (each scan)
	Commands []CommandBinding // SCADA coil -> ST var
}

// PLC is a running virtual PLC.
type PLC struct {
	cfg  Config
	host *netem.Host
	prog *st.Program
	env  *st.Env
	mb   *modbus.Server

	mu        sync.Mutex
	ieds      map[string]*iedConn
	lastWrite map[string]st.Value // per output binding key, to write on change
	pending   []pendingCmd
	scans     uint64
	scanNS    int64
	readErrs  uint64
	writeErrs uint64
}

type pendingCmd struct {
	variable string
	value    st.Value
}

// iedConn is a southbound association with reconnection state. OpenPLC
// re-establishes lost IED associations; so do we, with a backoff so a dead
// IED cannot stall every scan on dial timeouts.
type iedConn struct {
	addr     netem.IPv4
	port     uint16
	cli      *mms.Client
	fails    int
	lastDial time.Time
}

// reconnectBackoff bounds southbound redial attempts.
const reconnectBackoff = 2 * time.Second

// connFailThreshold is the number of consecutive I/O errors before the
// association is torn down and redialled.
const connFailThreshold = 2

// New parses the ST source and builds the runtime on a host.
func New(host *netem.Host, cfg Config, stSource string) (*PLC, error) {
	if cfg.Coils == 0 {
		cfg.Coils = 64
	}
	if cfg.Discrete == 0 {
		cfg.Discrete = 64
	}
	if cfg.Holding == 0 {
		cfg.Holding = 128
	}
	if cfg.Input == 0 {
		cfg.Input = 128
	}
	prog, err := st.Parse(stSource)
	if err != nil {
		return nil, fmt.Errorf("plc: control logic: %w", err)
	}
	env, err := st.NewEnv(prog)
	if err != nil {
		return nil, fmt.Errorf("plc: control logic: %w", err)
	}
	p := &PLC{
		cfg:       cfg,
		host:      host,
		prog:      prog,
		env:       env,
		mb:        modbus.NewServer(cfg.Coils, cfg.Discrete, cfg.Holding, cfg.Input),
		ieds:      make(map[string]*iedConn),
		lastWrite: make(map[string]st.Value),
	}
	// Validate bindings against declared variables.
	for _, b := range cfg.Inputs {
		if prog.FindVar(upper(b.Var)) == nil {
			return nil, fmt.Errorf("%w: input %q", ErrUnknownVar, b.Var)
		}
	}
	for _, b := range cfg.Outputs {
		if prog.FindVar(upper(b.Var)) == nil {
			return nil, fmt.Errorf("%w: output %q", ErrUnknownVar, b.Var)
		}
	}
	for _, b := range cfg.Expose {
		if prog.FindVar(upper(b.Var)) == nil {
			return nil, fmt.Errorf("%w: expose %q", ErrUnknownVar, b.Var)
		}
	}
	for _, b := range cfg.Commands {
		if prog.FindVar(upper(b.Var)) == nil {
			return nil, fmt.Errorf("%w: command %q", ErrUnknownVar, b.Var)
		}
	}
	// SCADA coil writes arrive asynchronously; queue them for the next scan.
	cmds := make(map[uint16]string, len(cfg.Commands))
	for _, b := range cfg.Commands {
		cmds[b.Coil] = upper(b.Var)
	}
	p.mb.OnCoilWrite(func(addr uint16, v bool) {
		name, ok := cmds[addr]
		if !ok {
			return
		}
		p.mu.Lock()
		p.pending = append(p.pending, pendingCmd{variable: name, value: st.BoolVal(v)})
		p.mu.Unlock()
	})
	return p, nil
}

func upper(s string) string {
	out := []rune(s)
	for i, r := range out {
		if r >= 'a' && r <= 'z' {
			out[i] = r - 'a' + 'A'
		}
	}
	return string(out)
}

// ConnectIED registers an MMS association to a southbound IED. If the
// association later breaks, Scan redials it with a backoff.
func (p *PLC) ConnectIED(name string, ip netem.IPv4, port uint16) error {
	cli, err := mms.Dial(p.host, ip, port, mms.DialOptions{Vendor: "openplc61850-sgml", Timeout: time.Second})
	if err != nil {
		return fmt.Errorf("plc: connect IED %q: %w", name, err)
	}
	p.mu.Lock()
	p.ieds[name] = &iedConn{addr: ip, port: port, cli: cli, lastDial: time.Now()}
	p.mu.Unlock()
	return nil
}

// noteIEDError records a failed exchange; past the threshold the association
// is closed so the next scan redials.
func (p *PLC) noteIEDError(name string) {
	p.mu.Lock()
	c := p.ieds[name]
	var toClose *mms.Client
	if c != nil {
		c.fails++
		if c.fails >= connFailThreshold && c.cli != nil {
			toClose = c.cli
			c.cli = nil
		}
	}
	p.mu.Unlock()
	if toClose != nil {
		_ = toClose.Close()
	}
}

func (p *PLC) noteIEDSuccess(name string) {
	p.mu.Lock()
	if c := p.ieds[name]; c != nil {
		c.fails = 0
	}
	p.mu.Unlock()
}

// Stop tears down the northbound server and southbound connections.
func (p *PLC) Stop() {
	p.mu.Lock()
	clients := make([]*mms.Client, 0, len(p.ieds))
	for _, c := range p.ieds {
		if c.cli != nil {
			clients = append(clients, c.cli)
		}
	}
	p.mu.Unlock()
	p.mb.Close()
	for _, c := range clients {
		_ = c.Close()
	}
}

// Serve starts the northbound Modbus server. Scans are driven by the caller
// (Scan), once per range step.
func (p *PLC) Serve() error { return p.mb.Serve(p.host, p.cfg.ModbusPort) }

// Modbus returns the northbound server (tests assert on its tables).
func (p *PLC) Modbus() *modbus.Server { return p.mb }

// Config returns a copy of the runtime's defaulted configuration. Callers use
// it to validate northbound access before dialling: table sizes bound the
// addressable coil/register space, ModbusPort is where the server listens.
func (p *PLC) Config() Config { return p.cfg }

// Host returns the fabric host the PLC runs on (its northbound address).
func (p *PLC) Host() *netem.Host { return p.host }

// Env returns the ST environment (tests inspect variables).
func (p *PLC) Env() *st.Env { return p.env }

// Bindings returns the distinct IED names referenced by the PLC's MMS
// input/output bindings (the set of southbound associations it needs).
func (p *PLC) Bindings() []string {
	seen := map[string]bool{}
	var out []string
	for _, b := range p.cfg.Inputs {
		if !seen[b.IED] {
			seen[b.IED] = true
			out = append(out, b.IED)
		}
	}
	for _, b := range p.cfg.Outputs {
		if !seen[b.IED] {
			seen[b.IED] = true
			out = append(out, b.IED)
		}
	}
	return out
}

// Stats reports completed scans, mean scan time and I/O error counts.
func (p *PLC) Stats() (scans uint64, meanScan time.Duration, readErrs, writeErrs uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.scans > 0 {
		meanScan = time.Duration(p.scanNS / int64(p.scans))
	}
	return p.scans, meanScan, p.readErrs, p.writeErrs
}

// Scan executes one full cycle: inputs -> logic -> outputs.
func (p *PLC) Scan(now time.Time) error {
	start := time.Now()
	// 1. Apply queued SCADA commands.
	p.mu.Lock()
	pending := p.pending
	p.pending = nil
	p.mu.Unlock()
	for _, cmd := range pending {
		_ = p.env.Set(cmd.variable, cmd.value)
	}

	// 2. Read southbound inputs over MMS.
	for _, b := range p.cfg.Inputs {
		cli := p.client(b.IED)
		if cli == nil {
			p.bumpReadErr()
			continue
		}
		v, err := cli.Read(b.Ref)
		if err != nil {
			p.bumpReadErr()
			p.noteIEDError(b.IED)
			continue
		}
		p.noteIEDSuccess(b.IED)
		_ = p.env.Set(upper(b.Var), mmsToST(v, scaleOf(b.Scale)))
	}

	// 3. Execute logic.
	if err := p.env.Step(now); err != nil {
		return fmt.Errorf("plc: scan: %w", err)
	}

	// 4. Write southbound outputs (on change).
	for _, b := range p.cfg.Outputs {
		val, ok := p.env.Get(upper(b.Var))
		if !ok {
			continue
		}
		key := b.IED + "/" + string(b.Ref)
		p.mu.Lock()
		last, seen := p.lastWrite[key]
		p.mu.Unlock()
		if seen && sameValue(last, val) {
			continue
		}
		cli := p.client(b.IED)
		if cli == nil {
			p.bumpWriteErr()
			continue
		}
		if err := cli.Write(b.Ref, stToMMS(val, scaleOf(b.Scale))); err != nil {
			p.bumpWriteErr()
			p.noteIEDError(b.IED)
			continue
		}
		p.noteIEDSuccess(b.IED)
		p.mu.Lock()
		p.lastWrite[key] = val
		p.mu.Unlock()
	}

	// 5. Expose variables northbound.
	for _, b := range p.cfg.Expose {
		val, ok := p.env.Get(upper(b.Var))
		if !ok {
			continue
		}
		scale := scaleOf(b.Scale)
		switch b.Kind {
		case ExposeInputReg:
			p.mb.SetInput(int(b.Addr), toRegister(val.AsReal()*scale))
		case ExposeDiscrete:
			p.mb.SetDiscrete(int(b.Addr), val.AsBool())
		case ExposeHolding:
			p.mb.SetHolding(int(b.Addr), toRegister(val.AsReal()*scale))
		}
	}

	p.mu.Lock()
	p.scans++
	p.scanNS += time.Since(start).Nanoseconds()
	p.mu.Unlock()
	return nil
}

// client returns a live association, redialling (with backoff) when the
// previous one broke.
func (p *PLC) client(name string) *mms.Client {
	p.mu.Lock()
	c := p.ieds[name]
	if c == nil {
		p.mu.Unlock()
		return nil
	}
	if c.cli != nil {
		cli := c.cli
		p.mu.Unlock()
		return cli
	}
	if time.Since(c.lastDial) < reconnectBackoff {
		p.mu.Unlock()
		return nil
	}
	c.lastDial = time.Now()
	addr, port := c.addr, c.port
	p.mu.Unlock()
	cli, err := mms.Dial(p.host, addr, port, mms.DialOptions{Vendor: "openplc61850-sgml", Timeout: time.Second})
	if err != nil {
		return nil
	}
	p.mu.Lock()
	c.cli = cli
	c.fails = 0
	p.mu.Unlock()
	return cli
}

func (p *PLC) bumpReadErr() {
	p.mu.Lock()
	p.readErrs++
	p.mu.Unlock()
}

func (p *PLC) bumpWriteErr() {
	p.mu.Lock()
	p.writeErrs++
	p.mu.Unlock()
}

func scaleOf(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

func toRegister(f float64) uint16 {
	if f < 0 {
		f = 0
	}
	if f > math.MaxUint16 {
		f = math.MaxUint16
	}
	return uint16(math.Round(f))
}

func sameValue(a, b st.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case st.KindBool:
		return a.Bool == b.Bool
	case st.KindInt:
		return a.Int == b.Int
	case st.KindReal:
		return a.Real == b.Real
	case st.KindTime:
		return a.Dur == b.Dur
	}
	return false
}

func mmsToST(v mms.Value, scale float64) st.Value {
	switch v.Kind {
	case mms.KindBool:
		return st.BoolVal(v.Bool)
	case mms.KindInt:
		if scale != 1 {
			return st.RealVal(float64(v.Int) * scale)
		}
		return st.IntVal(v.Int)
	case mms.KindUnsigned:
		return st.IntVal(int64(v.Uint))
	case mms.KindFloat:
		return st.RealVal(v.Float * scale)
	default:
		return st.IntVal(0)
	}
}

func stToMMS(v st.Value, scale float64) mms.Value {
	switch v.Kind {
	case st.KindBool:
		return mms.NewBool(v.Bool)
	case st.KindInt:
		return mms.NewInt(v.Int)
	case st.KindReal:
		return mms.NewFloat(v.Real / scale)
	case st.KindTime:
		return mms.NewInt(int64(v.Dur / time.Millisecond))
	default:
		return mms.NewInt(0)
	}
}
