package main

import (
	"time"

	"repro/internal/dsp"
	"repro/internal/imgproc"
	"repro/internal/infer"
	"repro/internal/mvce"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/stroke"
)

// kernelBudget bounds the wall time of one kernel sweep.
const kernelBudget = 3 * time.Second

// kernelTimes are per-call medians of each layer's public functions, on
// windows cut from the workload's own traces.
type kernelTimes struct {
	frameColumn, median, gaussian, normBin, fillHoles, removeSmall, extract time.Duration
	detect, classify, recognize                                             []float64 // ns per call
	allocPerPass                                                            float64   // bytes
	passes                                                                  int
}

// sweepKernels replays the serving enhancement chain step by step
// through the public imgproc, mvce, segment and pipeline functions, on
// width-column windows of the traces, and times each call. It mirrors
// the stream's enhancement order: median, static subtraction and energy
// gate, Gaussian blur, normalize and binarize, hole fill, speck removal,
// then contour, segmentation and per-stroke classification.
func sweepKernels(scripts []*script, width int, rec *infer.Recognizer) (*kernelTimes, error) {
	cfg := pipeline.DefaultConfig()
	eng, err := pipeline.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	stft, err := dsp.NewSTFT(cfg.STFT)
	if err != nil {
		return nil, err
	}
	mcfg := mvce.Config{
		CarrierBin:   cfg.CarrierHz*float64(cfg.STFT.FFTSize)/cfg.STFT.SampleRate - float64(cfg.STFT.LowBin),
		BinWidthHz:   cfg.STFT.SampleRate / float64(cfg.STFT.FFTSize),
		SmoothWindow: cfg.ProfileSmoothWindow,
		Invert:       cfg.InvertSpectrum,
	}

	// Raw magnitude windows: the last width columns of each trace, with
	// the trace's own static template.
	type window struct {
		raw    [][]float64
		static []float64
	}
	var windows []window
	var frameTimes []float64
	for _, sc := range scripts {
		var samples []float64
		for _, o := range sc.ops {
			samples = append(samples, decodePCM16(o.pcm)...)
		}
		var cols [][]float64
		for lo := 0; lo+cfg.STFT.FFTSize <= len(samples); lo += cfg.STFT.HopSize {
			t0 := time.Now()
			col, err := stft.FrameColumn(samples[lo : lo+cfg.STFT.FFTSize])
			frameTimes = append(frameTimes, float64(time.Since(t0)))
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
		}
		if len(cols) < width || len(cols) < cfg.StaticFrames {
			continue
		}
		static := make([]float64, len(cols[0]))
		for _, c := range cols[:cfg.StaticFrames] {
			for b, v := range c {
				static[b] += v / float64(cfg.StaticFrames)
			}
		}
		windows = append(windows, window{raw: cols[len(cols)-width:], static: static})
	}
	k := &kernelTimes{frameColumn: time.Duration(median(frameTimes))}
	var words []string
	for _, sc := range scripts {
		words = append(words, sc.words...)
	}
	if len(windows) == 0 {
		return k, nil
	}

	var med, gau, nb, fill, rm, ext []float64
	timed := func(dst *[]float64, f func() error) error {
		t0 := time.Now()
		err := f()
		*dst = append(*dst, float64(time.Since(t0)))
		return err
	}
	var allocBytes uint64
	deadline := time.Now().Add(kernelBudget)
	for i := 0; i < len(windows) || time.Now().Before(deadline); i++ {
		w := windows[i%len(windows)]
		a0 := totalAlloc()
		var m [][]float64
		var bin [][]uint8
		err := timed(&med, func() (err error) { m, err = imgproc.Median3x3(w.raw); return err })
		if err != nil {
			return nil, err
		}
		for _, row := range m {
			for b := range row {
				row[b] = max(0, row[b]-w.static[b])
			}
		}
		imgproc.Threshold(m, cfg.EnergyThreshold)
		steps := []struct {
			dst *[]float64
			f   func() error
		}{
			{&gau, func() (err error) { m, err = imgproc.GaussianBlur(m, cfg.GaussianKernel, 0); return err }},
			{&nb, func() error { imgproc.Normalize01(m); bin = imgproc.Binarize(m, cfg.BinarizeThreshold); return nil }},
			{&fill, func() (err error) { bin, err = imgproc.FillHoles(bin); return err }},
			{&rm, func() (err error) { bin, err = imgproc.RemoveSmallComponents(bin, cfg.MinComponentSize); return err }},
		}
		for _, s := range steps {
			if err := timed(s.dst, s.f); err != nil {
				return nil, err
			}
		}
		allocBytes += totalAlloc() - a0
		k.passes++
		var profile []float64
		if err := timed(&ext, func() (err error) { profile, err = mvce.Extract(bin, mcfg); return err }); err != nil {
			return nil, err
		}
		var segs []segment.Segment
		err = timed(&k.detect, func() (err error) { segs, err = segment.Detect(profile, cfg.Segment); return err })
		if err != nil {
			return nil, err
		}
		for _, sg := range segs {
			slice, err := segment.Slice(profile, sg)
			if err != nil {
				return nil, err
			}
			if err := timed(&k.classify, func() error { _, err := eng.ClassifyProfile(slice); return err }); err != nil {
				return nil, err
			}
		}
	}
	for rep := 0; rep < 10; rep++ {
		for _, word := range words {
			seq, err := stroke.DefaultScheme().Encode(word)
			if err != nil {
				return nil, err
			}
			if err := timed(&k.recognize, func() error { _, err := rec.Recognize(seq); return err }); err != nil {
				return nil, err
			}
		}
	}
	k.median = time.Duration(median(med))
	k.gaussian = time.Duration(median(gau))
	k.normBin = time.Duration(median(nb))
	k.fillHoles = time.Duration(median(fill))
	k.removeSmall = time.Duration(median(rm))
	k.extract = time.Duration(median(ext))
	k.allocPerPass = float64(allocBytes) / float64(k.passes)
	return k, nil
}
