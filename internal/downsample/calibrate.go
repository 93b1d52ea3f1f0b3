package downsample

import (
	"repro/internal/calibrate"
	"repro/internal/pipeline"
)

// CalibratedEngine builds an engine on the derived configuration with
// pipeline-calibrated templates: each canonical stroke is synthesized at
// the full rate, pushed through the front-end, and its profile extracted
// by ground-truth span — the downsampled counterpart of
// calibrate.NewCalibratedEngine.
func (f *Frontend) CalibratedEngine() (*pipeline.Engine, error) {
	eng, err := pipeline.NewEngine(f.cfg)
	if err != nil {
		return nil, err
	}
	lib, err := calibrate.TemplatesThrough(f.base, eng, f.Process)
	if err != nil {
		return nil, err
	}
	if err := eng.SetTemplateLibrary(lib); err != nil {
		return nil, err
	}
	return eng, nil
}
