package netem

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// Well-known addresses.
var (
	BroadcastMAC = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	// GooseMACBase is the IEC 61850 multicast range 01-0C-CD-01-xx-xx.
	GooseMACBase = MAC{0x01, 0x0C, 0xCD, 0x01, 0x00, 0x00}
)

// IsMulticast reports whether the address has the group bit set.
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsBroadcast reports whether the address is all-ones.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// String formats as aa:bb:cc:dd:ee:ff.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// ParseMAC parses aa:bb:cc:dd:ee:ff or aa-bb-cc-dd-ee-ff.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == ':' || r == '-' })
	if len(parts) != 6 {
		return m, fmt.Errorf("netem: bad MAC %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return m, fmt.Errorf("netem: bad MAC %q: %w", s, err)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// GooseMAC returns the GOOSE multicast address for an APPID.
func GooseMAC(appID uint16) MAC {
	m := GooseMACBase
	m[4] = byte(appID >> 8)
	m[5] = byte(appID)
	return m
}

// IPv4 is a 32-bit internet address.
type IPv4 [4]byte

// BroadcastIP is the limited broadcast address.
var BroadcastIP = IPv4{255, 255, 255, 255}

// String formats in dotted-quad notation.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IsZero reports whether the address is 0.0.0.0.
func (ip IPv4) IsZero() bool { return ip == IPv4{} }

// ErrBadAddress is returned for malformed address strings.
var ErrBadAddress = errors.New("netem: bad address")

// ParseIPv4 parses dotted-quad notation.
func ParseIPv4(s string) (IPv4, error) {
	var ip IPv4
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return ip, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return ip, fmt.Errorf("%w: %q: %v", ErrBadAddress, s, err)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

// MustIPv4 parses s or panics; for tests and static topology tables.
func MustIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// MustMAC parses s or panics; for tests and static topology tables.
func MustMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}
