package core

import (
	"sort"

	"repro/internal/ied"
	"repro/internal/plc"
)

// Shard is the devices of a single substation. The shard list fixes the
// order StepAll scans PLCs in: shard by shard, sorted by name within each.
type Shard struct {
	// Name is the substation the shard covers (or "range" for devices with
	// no substation attribution).
	Name string
	// IEDs are the shard's virtual IEDs, sorted.
	IEDs []string
	// PLCs are the shard's PLC runtimes, sorted.
	PLCs []string
}

// defaultShard collects devices that no substation claims.
const defaultShard = "range"

// partitionShards groups compiled devices into per-substation shards.
// subOf is the SCL-derived IED -> substation map from the merge stage. The
// result is sorted by shard name, and devices within a shard are sorted, so
// the partition is deterministic for a given model.
func partitionShards(subOf map[string]string, ieds map[string]*ied.IED, plcs map[string]*plc.PLC) []Shard {
	keyOf := func(name string) string {
		if s, ok := subOf[name]; ok && s != "" {
			return s
		}
		return defaultShard
	}
	byKey := map[string]*Shard{}
	shard := func(key string) *Shard {
		s, ok := byKey[key]
		if !ok {
			s = &Shard{Name: key}
			byKey[key] = s
		}
		return s
	}
	for name := range ieds {
		s := shard(keyOf(name))
		s.IEDs = append(s.IEDs, name)
	}
	for name := range plcs {
		s := shard(keyOf(name))
		s.PLCs = append(s.PLCs, name)
	}
	out := make([]Shard, 0, len(byKey))
	for _, s := range byKey {
		sort.Strings(s.IEDs)
		sort.Strings(s.PLCs)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
