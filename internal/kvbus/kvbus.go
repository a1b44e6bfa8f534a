// Package kvbus implements the cyber/physical coupling cache of the cyber range.
//
// The paper couples virtual IEDs to the power system simulator through a MySQL
// database used purely as a key-value "cache": the simulator writes grid
// measurements (voltage, current, power) under well-known keys, IEDs read them;
// IEDs write actuation commands (breaker open/close), the simulator reads them
// at each step (§III-B). This package is the in-process equivalent: a
// concurrent, versioned key-value store with the same read/write semantics,
// plus watch support so tests and the SCADA layer can react to changes without
// polling.
package kvbus

import (
	"fmt"
	"sort"
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

// Update describes one observed write, delivered to watchers.
type Update struct {
	Key   string
	Value Value
}

// Bus is the key-value cache. The zero value is not usable; call New.
type Bus struct {
	mu       sync.RWMutex
	data     map[string]Value
	watchers map[string][]chan Update // key -> subscriber channels; "" watches all
	writes   uint64
	reads    uint64
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{
		data:     make(map[string]Value),
		watchers: make(map[string][]chan Update),
	}
}

// Set writes key = raw, bumping the key version and notifying watchers.
func (b *Bus) Set(key, raw string) {
	b.mu.Lock()
	v := Value{Raw: raw, Version: b.data[key].Version + 1}
	b.data[key] = v
	b.writes++
	subs := make([]chan Update, 0, len(b.watchers[key])+len(b.watchers[""]))
	subs = append(subs, b.watchers[key]...)
	subs = append(subs, b.watchers[""]...)
	b.mu.Unlock()

	u := Update{Key: key, Value: v}
	for _, ch := range subs {
		select {
		case ch <- u:
		default: // slow watcher: drop rather than block the simulation step
		}
	}
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
	b.mu.Lock()
	b.reads++
	v, ok := b.data[key]
	b.mu.Unlock()
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

// Delete removes a key. Watchers are not notified of deletes.
func (b *Bus) Delete(key string) {
	b.mu.Lock()
	delete(b.data, key)
	b.mu.Unlock()
}

// Keys returns all keys with the given prefix, sorted.
func (b *Bus) Keys(prefix string) []string {
	b.mu.RLock()
	out := make([]string, 0, len(b.data))
	for k := range b.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	b.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of stored keys.
func (b *Bus) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.data)
}

// Watch subscribes to writes on key (or every key when key == "").
// The returned cancel function must be called to release the subscription.
// The channel has a small buffer; updates are dropped rather than blocking
// writers, mirroring a cache poller that can miss intermediate values.
func (b *Bus) Watch(key string) (<-chan Update, func()) {
	ch := make(chan Update, 64)
	b.mu.Lock()
	b.watchers[key] = append(b.watchers[key], ch)
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		subs := b.watchers[key]
		for i, c := range subs {
			if c == ch {
				b.watchers[key] = append(subs[:i:i], subs[i+1:]...)
				break
			}
		}
		b.mu.Unlock()
	}
	return ch, cancel
}

// Stats reports cumulative read/write counters (used by the benches to show
// coupling traffic volume).
func (b *Bus) Stats() (reads, writes uint64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.reads, b.writes
}

// Snapshot returns a copy of the whole store, for scenario checkpointing.
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
// versions included — unlike Snapshot/Restore, which flatten versions to 1,
// a fork is byte- and version-identical to its parent at the fork point, so
// version-sensitive readers (watch de-duplication, stale-read checks) behave
// exactly as they would on the original. Watchers and read/write counters
// are not inherited: a fork starts with no subscribers and zeroed stats.
// The compiled-range fork path uses this to duplicate the coupling cache
// per run without re-deriving its initial state.
func (b *Bus) Fork() *Bus {
	b.mu.RLock()
	defer b.mu.RUnlock()
	nb := New()
	for k, v := range b.data {
		nb.data[k] = v
	}
	return nb
}

// Restore replaces the store contents with snap (versions restart at 1).
func (b *Bus) Restore(snap map[string]string) {
	b.mu.Lock()
	b.data = make(map[string]Value, len(snap))
	for k, raw := range snap {
		b.data[k] = Value{Raw: raw, Version: 1}
	}
	b.mu.Unlock()
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
