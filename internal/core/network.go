package core

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/sclmerge"
)

// BuiltNetwork is the cyber network emulation model generated from the SCD
// communication section: one switch per subnetwork, one host per connected
// access point, and — for multi-substation models — a central WAN switch
// joining the subnetwork switches ("the WAN is abstracted as a single switch
// connected to all substations", §III-B). The same central switch joins the
// per-segment LANs of a single substation, matching Fig 4's topology.
type BuiltNetwork struct {
	Net      *netem.Network
	Hosts    map[string]*netem.Host // IED/PLC/SCADA name -> host
	Switches map[string]*netem.Switch
	// AddrOf records each node's parsed address.
	AddrOf map[string]netem.IPv4
}

// GenerateNetwork is the Mininet-launcher stage.
func GenerateNetwork(cons *sclmerge.Consolidated) (*BuiltNetwork, error) {
	doc := cons.Doc
	if doc.Communication == nil || len(doc.Communication.SubNetworks) == 0 {
		return nil, fmt.Errorf("%w: no communication section", ErrModel)
	}
	out := &BuiltNetwork{
		Net:      netem.NewNetwork(),
		Hosts:    make(map[string]*netem.Host),
		Switches: make(map[string]*netem.Switch),
		AddrOf:   make(map[string]netem.IPv4),
	}
	wanLatency := time.Duration(cons.WAN.LatencyMS * float64(time.Millisecond))

	// Central switch (WAN or intra-substation backbone).
	multi := len(doc.Communication.SubNetworks) > 1
	var core *netem.Switch
	if multi {
		sw, err := netem.NewSwitch(out.Net, "sw-wan", len(doc.Communication.SubNetworks)+2)
		if err != nil {
			return nil, err
		}
		core = sw
		out.Switches["sw-wan"] = sw
	}

	corePort := 0
	for _, sn := range doc.Communication.SubNetworks {
		swName := "sw-" + sanitize(sn.Name)
		sw, err := netem.NewSwitch(out.Net, swName, len(sn.ConnectedAPs)+2)
		if err != nil {
			return nil, err
		}
		out.Switches[swName] = sw
		for i, ap := range sn.ConnectedAPs {
			ipStr := ap.Address.Get("IP")
			macStr := ap.Address.Get("MAC-Address")
			if ipStr == "" {
				return nil, fmt.Errorf("%w: IED %q has no IP address", ErrModel, ap.IEDName)
			}
			ip, err := netem.ParseIPv4(ipStr)
			if err != nil {
				return nil, fmt.Errorf("%w: IED %q: %v", ErrModel, ap.IEDName, err)
			}
			var mac netem.MAC
			if macStr != "" {
				mac, err = netem.ParseMAC(macStr)
				if err != nil {
					return nil, fmt.Errorf("%w: IED %q: %v", ErrModel, ap.IEDName, err)
				}
			} else {
				mac = netem.MAC{0x02, 0x00, ip[0], ip[1], ip[2], ip[3]}
			}
			host, err := netem.NewHost(out.Net, ap.IEDName, mac, ip)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrModel, err)
			}
			if _, err := out.Net.Connect(ap.IEDName, 0, swName, i, 0); err != nil {
				return nil, err
			}
			out.Hosts[ap.IEDName] = host
			out.AddrOf[ap.IEDName] = ip
		}
		if core != nil {
			// Uplink on the subnet switch's last port.
			if _, err := out.Net.Connect(swName, len(sn.ConnectedAPs), "sw-wan", corePort, wanLatency); err != nil {
				return nil, err
			}
			corePort++
		}
	}
	return out, nil
}

// AttachHost adds an extra node (e.g. an attacker box, the "own devices
// connected to the cyber range" usage of §IV-B) to a named switch.
func (b *BuiltNetwork) AttachHost(name string, mac netem.MAC, ip netem.IPv4, switchName string) (*netem.Host, error) {
	sw, ok := b.Switches[switchName]
	if !ok {
		return nil, fmt.Errorf("%w: unknown switch %q", ErrModel, switchName)
	}
	host, err := netem.NewHost(b.Net, name, mac, ip)
	if err != nil {
		return nil, err
	}
	// Find a free port: scan used ports on the switch.
	port, err := b.freePort(switchName, sw.NumPorts())
	if err != nil {
		return nil, err
	}
	if _, err := b.Net.Connect(name, 0, switchName, port, 0); err != nil {
		return nil, err
	}
	b.Hosts[name] = host
	b.AddrOf[name] = ip
	return host, nil
}

func (b *BuiltNetwork) freePort(switchName string, numPorts int) (int, error) {
	used := map[int]bool{}
	for _, l := range b.Net.Links() {
		devA, portA, devB, portB := l.Endpoints()
		if devA == switchName {
			used[portA] = true
		}
		if devB == switchName {
			used[portB] = true
		}
	}
	for p := 0; p < numPorts; p++ {
		if !used[p] {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%w: switch %q has no free ports", ErrModel, switchName)
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		if r == '/' || r == ' ' {
			out[i] = '-'
		}
	}
	return string(out)
}
