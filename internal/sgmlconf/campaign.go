package sgmlconf

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
)

// ---------------------------------------------------------------------------
// Campaign XML
// ---------------------------------------------------------------------------
//
// The fifth supplementary schema: a declarative sweep over scenario runs, in
// the same flat attribute style as the other SG-ML config files. Each
// <Variant> references a Scenario XML file (path relative to the campaign
// file) and sweeps it over a seed list; an optional model attribute points a
// variant at a different SG-ML model directory than the campaign default.
// Attributes the schema does not define — among them the retired sequential
// and framePooling toggles — are ignored.
//
//	<Campaign name="seedsweep" workers="4">
//	  <Variant name="sweep"  scenario="drill.scenario.xml" seeds="1-20"/>
//	  <Variant name="repeat" scenario="drill.scenario.xml" seeds="1-5" repeat="2"/>
//	</Campaign>

// CampaignConfig is the root of a Campaign XML file.
type CampaignConfig struct {
	XMLName xml.Name `xml:"Campaign"`
	Name    string   `xml:"name,attr"`
	// Workers is the default worker-pool size (0 = GOMAXPROCS).
	Workers  int                     `xml:"workers,attr"`
	Variants []CampaignVariantConfig `xml:"Variant"`
}

// CampaignVariantConfig is one sweep cell: scenario file, seed list, repeat
// count and step budget.
type CampaignVariantConfig struct {
	Name string `xml:"name,attr"`
	// Scenario is the Scenario XML file, relative to the campaign file.
	Scenario string `xml:"scenario,attr"`
	// Model optionally overrides the campaign's model directory (relative to
	// the campaign file).
	Model string `xml:"model,attr"`
	// Seeds is a comma-separated list of seeds and inclusive ranges, e.g.
	// "1,2,10-14". An absent attribute sweeps the scenario's own seed once;
	// a present-but-empty one (seeds="") is rejected — a sweep of zero runs
	// is a truncated config, not a default. The pointer distinguishes the
	// two XML shapes.
	Seeds *string `xml:"seeds,attr"`
	// Repeat runs each seed this many times (>= 2 probes determinism).
	Repeat int `xml:"repeat,attr"`
	// MaxSteps caps each run of this variant to the first N scenario steps
	// (0 = the scenario's full horizon). A run that exhausts the budget is
	// aborted deterministically and recorded as a scenario failure — a cheap
	// guard against runaway variants in a shared sweep.
	MaxSteps int `xml:"maxSteps,attr"`
}

// maxSeedExpansion bounds one seeds attribute's expanded length. A range
// like "1-9223372036854775807" is a spec typo, not a request for a 9-EB
// sweep; without the cap it would also hang expansion (and a range ending at
// MaxInt64 would overflow the loop counter).
const maxSeedExpansion = 1 << 20

// SeedList parses the seeds attribute into the expanded seed slice. An
// absent attribute returns (nil, nil) — the engine then defaults to the
// scenario's own seed; a present attribute that expands to no seeds at all
// (seeds="" or only separators) is an error, as is one expanding past
// maxSeedExpansion.
func (v *CampaignVariantConfig) SeedList() ([]int64, error) {
	if v.Seeds == nil {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(*v.Seeds, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// An inclusive range "a-b" (negative seeds are not supported in the
		// XML form, so the dash is unambiguous — and a is never negative,
		// Cut splits at the first dash).
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
			b, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
			// a >= 0 <= b here, so b-a cannot overflow.
			if b-a >= maxSeedExpansion-int64(len(out)) {
				return nil, fmt.Errorf("seed range %q expands past %d seeds", part, maxSeedExpansion)
			}
			for s := a; ; s++ {
				out = append(out, s)
				if s == b {
					break
				}
			}
			continue
		}
		s, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("seeds attribute %q expands to no seeds (omit the attribute to sweep the scenario's own seed)", *v.Seeds)
	}
	return out, nil
}

// Validate checks the structural invariants: a campaign name, at least one
// variant, unique variant names, scenario references and parsable seed
// lists. File resolution happens in the loader.
func (c *CampaignConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: campaign without name", ErrConfig)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: campaign workers %d", ErrConfig, c.Workers)
	}
	if len(c.Variants) == 0 {
		return fmt.Errorf("%w: campaign %q has no variants", ErrConfig, c.Name)
	}
	names := map[string]bool{}
	for i := range c.Variants {
		v := &c.Variants[i]
		label := v.Name
		if label == "" {
			label = fmt.Sprintf("#%d", i+1)
		}
		if v.Name != "" && names[v.Name] {
			return fmt.Errorf("%w: duplicate variant %q", ErrConfig, v.Name)
		}
		names[v.Name] = true
		if v.Scenario == "" {
			return fmt.Errorf("%w: variant %s without scenario file", ErrConfig, label)
		}
		if v.Repeat < 0 {
			return fmt.Errorf("%w: variant %s: negative repeat", ErrConfig, label)
		}
		if v.MaxSteps < 0 {
			return fmt.Errorf("%w: variant %s: negative maxSteps", ErrConfig, label)
		}
		if _, err := v.SeedList(); err != nil {
			return fmt.Errorf("%w: variant %s: %v", ErrConfig, label, err)
		}
	}
	return nil
}

// ParseCampaignConfig decodes and validates a Campaign XML file.
func ParseCampaignConfig(data []byte) (*CampaignConfig, error) {
	var c CampaignConfig
	if err := xml.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
