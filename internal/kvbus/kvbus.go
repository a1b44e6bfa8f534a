// Package kvbus implements the cyber/physical coupling cache of the cyber range.
//
// The paper couples virtual IEDs to the power system simulator through a MySQL
// database used purely as a key-value "cache": the simulator writes grid
// measurements (voltage, current, power) under well-known keys, IEDs read them;
// IEDs write actuation commands (breaker open/close), the simulator reads them
// at each step (§III-B). This package is the in-process equivalent: a
// concurrent, versioned key-value store with the same read/write semantics.
// Like the paper's cache it is polled: readers fetch the current value when
// they step, and nothing is pushed to them.
package kvbus

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Value is one cache entry. Values are stored as strings — exactly what a SQL
// cache row holds — with typed accessors for convenience.
type Value struct {
	Raw     string
	Version uint64 // increments on every write to the key
}

// Float returns the value parsed as float64.
func (v Value) Float() (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(v.Raw), 64)
	if err != nil {
		return 0, fmt.Errorf("kvbus: value %q is not a float: %w", v.Raw, err)
	}
	return f, nil
}

// Bool returns the value parsed as a boolean (accepts 0/1/true/false).
func (v Value) Bool() (bool, error) {
	switch strings.ToLower(strings.TrimSpace(v.Raw)) {
	case "1", "true", "on", "closed":
		return true, nil
	case "0", "false", "off", "open":
		return false, nil
	}
	return false, fmt.Errorf("kvbus: value %q is not a bool", v.Raw)
}

// Int returns the value parsed as int64.
func (v Value) Int() (int64, error) {
	i, err := strconv.ParseInt(strings.TrimSpace(v.Raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("kvbus: value %q is not an int: %w", v.Raw, err)
	}
	return i, nil
}

// Bus is the key-value cache. The zero value is not usable; call New.
type Bus struct {
	mu   sync.RWMutex
	data map[string]Value
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{data: make(map[string]Value)}
}

// Set writes key = raw, bumping the key version.
func (b *Bus) Set(key, raw string) {
	b.mu.Lock()
	b.data[key] = Value{Raw: raw, Version: b.data[key].Version + 1}
	b.mu.Unlock()
}

// SetFloat writes a float measurement with full precision.
func (b *Bus) SetFloat(key string, f float64) { b.Set(key, strconv.FormatFloat(f, 'g', -1, 64)) }

// SetBool writes a boolean as "1"/"0".
func (b *Bus) SetBool(key string, v bool) {
	raw := "0"
	if v {
		raw = "1"
	}
	b.Set(key, raw)
}

// SetInt writes an integer.
func (b *Bus) SetInt(key string, v int64) { b.Set(key, strconv.FormatInt(v, 10)) }

// Get reads a key. ok is false when the key has never been written.
func (b *Bus) Get(key string) (Value, bool) {
	b.mu.RLock()
	v, ok := b.data[key]
	b.mu.RUnlock()
	return v, ok
}

// GetFloat reads a float-valued key, returning def when missing or malformed.
func (b *Bus) GetFloat(key string, def float64) float64 {
	v, ok := b.Get(key)
	if !ok {
		return def
	}
	f, err := v.Float()
	if err != nil {
		return def
	}
	return f
}

// GetBool reads a bool-valued key, returning def when missing or malformed.
func (b *Bus) GetBool(key string, def bool) bool {
	v, ok := b.Get(key)
	if !ok {
		return def
	}
	x, err := v.Bool()
	if err != nil {
		return def
	}
	return x
}

// Len returns the number of stored keys.
func (b *Bus) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.data)
}

// Snapshot returns a copy of the whole store's values, versions dropped: the
// observable coupling state.
func (b *Bus) Snapshot() map[string]string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string]string, len(b.data))
	for k, v := range b.data {
		out[k] = v.Raw
	}
	return out
}

// Fork returns an independent bus pre-loaded with b's current contents,
// versions included, so a fork is value- and version-identical to its parent
// at the fork point. The compiled-range fork path uses this to duplicate the
// coupling cache per run without re-deriving its initial state, and the
// replay differentials compare versions as well as values.
func (b *Bus) Fork() *Bus {
	b.mu.RLock()
	defer b.mu.RUnlock()
	nb := New()
	for k, v := range b.data {
		nb.data[k] = v
	}
	return nb
}

// Well-known key builders shared by the simulator and the device layer. The
// naming mirrors the paper's IED Config XML mapping: each IED declares which
// physical element (bus, line, breaker) a data point binds to.

// BusVoltageKey is the per-unit voltage magnitude at a bus.
func BusVoltageKey(sub, bus string) string { return "pw/" + sub + "/bus/" + bus + "/vm_pu" }

// BusAngleKey is the voltage angle (degrees) at a bus.
func BusAngleKey(sub, bus string) string { return "pw/" + sub + "/bus/" + bus + "/va_deg" }

// LineCurrentKey is the loading current (kA) on a line.
func LineCurrentKey(sub, line string) string { return "pw/" + sub + "/line/" + line + "/i_ka" }

// LinePKey is active power (MW) at the from-end of a line.
func LinePKey(sub, line string) string { return "pw/" + sub + "/line/" + line + "/p_mw" }

// LineQKey is reactive power (MVAr) at the from-end of a line.
func LineQKey(sub, line string) string { return "pw/" + sub + "/line/" + line + "/q_mvar" }

// BreakerStatusKey is the simulator-reported breaker state (1 closed, 0 open).
func BreakerStatusKey(sub, cb string) string { return "pw/" + sub + "/cb/" + cb + "/closed" }

// BreakerCmdKey is the IED-written breaker command (1 close, 0 open).
func BreakerCmdKey(sub, cb string) string { return "cmd/" + sub + "/cb/" + cb + "/close" }

// LoadPKey is the active power (MW) drawn by a load element.
func LoadPKey(sub, load string) string { return "pw/" + sub + "/load/" + load + "/p_mw" }

// GenPKey is the active power (MW) injected by a generator element.
func GenPKey(sub, gen string) string { return "pw/" + sub + "/gen/" + gen + "/p_mw" }
