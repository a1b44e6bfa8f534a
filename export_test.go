package sgml

import "repro/internal/core"

// WithPerRunCompile makes RunCampaign compile a fresh range for every run
// instead of forking a compile-once root. It is the test oracle of the fork
// path: the chaos, store and bench differentials run both provisioning paths
// and require byte-identical fingerprints.
func WithPerRunCompile() CampaignOption { return core.WithPerRunCompile() }
