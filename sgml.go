package sgml

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/epic"
	"repro/internal/scl"
)

// Re-exported model and range types.
type (
	// ModelSet is the parsed SG-ML input (Fig 2 left-hand side).
	ModelSet = core.ModelSet
	// CyberRange is a compiled, runnable cyber range (Fig 1 architecture).
	CyberRange = core.CyberRange
	// PLCSpec couples PLC control logic with its I/O mapping.
	PLCSpec = core.PLCSpec
	// EventSpec is one scenario step in neutral form.
	EventSpec = core.EventSpec
)

// The unified option surface: one family of With* constructors shared by
// Compile, Run/RunCompiled and RunCampaign. Each constructor returns a value
// implementing exactly the option interfaces of the calls it is meaningful
// for — WithWorkers is an Option (accepted everywhere), WithSeed is only a
// RunOption — so a misplaced option is a compile-time error, not a silent
// no-op.
type (
	// Option is an option meaningful to Compile, Run and RunCampaign alike
	// (see WithWorkers).
	Option = core.Option
	// CompileOption tunes the compiled range (accepted by Compile).
	CompileOption = core.CompileOption
)

// ErrModel is returned when an SG-ML model cannot be compiled.
var ErrModel = core.ErrModel

// WithWorkers sets how many runs RunCampaign executes concurrently (default
// runtime.GOMAXPROCS(0)). Compile and Run accept and ignore it: a range steps
// on one goroutine. Worker count never changes run fingerprints.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// Compile runs the SG-ML Processor on a model set. The expensive derivation
// work is kept on the range as shared immutable artifacts; CyberRange.Fork
// clones the compiled range for another isolated run without repeating it.
func Compile(ms *ModelSet, opts ...CompileOption) (*CyberRange, error) {
	return core.Compile(ms, opts...)
}

// LoadModelDir reads an SG-ML model directory (the on-disk file set the
// paper's toolchain consumes) into a ModelSet.
func LoadModelDir(name, dir string) (*ModelSet, error) { return core.LoadModelDir(name, dir) }

// LoadModelFiles assembles a ModelSet from in-memory files.
func LoadModelFiles(name string, files map[string][]byte) (*ModelSet, error) {
	return core.LoadModelFiles(name, files)
}

// EPICModelSet generates the EPIC testbed demonstration model (§IV-A) as a
// ready-to-compile ModelSet.
func EPICModelSet() (*ModelSet, error) {
	m, err := epic.NewModel()
	if err != nil {
		return nil, err
	}
	return ModelSetFromEPIC(m), nil
}

// EPICFiles generates the EPIC model as its on-disk SG-ML file set
// (SCD, ICDs, supplementary XML, PLCopen XML, SCADABR import JSON).
func EPICFiles() (map[string][]byte, error) {
	m, err := epic.NewModel()
	if err != nil {
		return nil, err
	}
	return m.Files()
}

// ModelSetFromEPIC converts a generated EPIC model into a ModelSet.
func ModelSetFromEPIC(m *epic.Model) *ModelSet {
	return &ModelSet{
		Name:        "epic",
		SCDs:        map[string]*scl.Document{m.Substation: m.SCD},
		ICDs:        m.ICDs,
		IEDConfig:   m.IEDConfig,
		SCADAConfig: m.SCADAConfig,
		PowerConfig: m.PowerConfig,
		PLCs:        []PLCSpec{{Config: m.PLCConfig, PLCopenXML: m.PLCopenXML}},
	}
}

// ScaleModelSet generates the parametric multi-substation model used by the
// §IV-A scalability experiment: nSubs substations chained by SED ties, each
// with feeders feeder IEDs plus one gateway IED.
func ScaleModelSet(nSubs, feeders int) (*ModelSet, int, error) {
	sm, err := epic.NewScaleModel(nSubs, feeders)
	if err != nil {
		return nil, 0, err
	}
	return packScaleModel(fmt.Sprintf("scale-%dx%d", nSubs, feeders), sm), sm.TotalIEDs, nil
}

// ScaleModelSetXL generates the 10×50 XL scale model (510 buses, 510 IEDs)
// the sparse-solver ablation runs at; see epic.NewScaleModelXL for the
// electrical-parameter adjustments that keep the long radial chain solvable.
func ScaleModelSetXL() (*ModelSet, int, error) {
	sm, err := epic.NewScaleModelXL()
	if err != nil {
		return nil, 0, err
	}
	return packScaleModel(fmt.Sprintf("scale-xl-%dx%d", epic.ScaleXLSubs, epic.ScaleXLFeeders), sm), sm.TotalIEDs, nil
}

func packScaleModel(name string, sm *epic.ScaleModel) *ModelSet {
	return &ModelSet{
		Name:        name,
		SCDs:        sm.SCDs,
		SED:         sm.SED,
		IEDConfig:   sm.IEDConfigs,
		PowerConfig: sm.PowerConfig,
	}
}
