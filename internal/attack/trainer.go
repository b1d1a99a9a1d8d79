package attack

import (
	"fmt"
	"math"
	"math/rand"

	"roadtrojan/internal/eot"
	"roadtrojan/internal/gan"
	"roadtrojan/internal/imaging"
	"roadtrojan/internal/nn"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/optim"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// Patch is a trained decal artifact. Ours is monochrome (Gray + Mask); the
// baseline's is colored (RGB, full-square sticker).
type Patch struct {
	Gray *tensor.Tensor // [1,R,R] generator output, nil for the baseline
	Mask *tensor.Tensor // [1,R,R] silhouette mask, nil for the baseline
	RGB  *tensor.Tensor // [3,R,R] colored baseline patch, nil for ours
	Cfg  Config
}

// IsColored reports whether this is a baseline-style RGB patch.
func (p *Patch) IsColored() bool { return p.RGB != nil }

// MaskedGray returns the print-ready monochrome layer: generator output
// inside the silhouette, white (transparent) outside.
func (p *Patch) MaskedGray() *tensor.Tensor {
	out, _ := imaging.ApplyShapeMask(p.Gray, p.Mask)
	return out
}

// TrainStats traces the optimization, one entry per iteration for every
// method; the GAN losses stay zero for the GAN-free methods.
type TrainStats struct {
	AttackLoss []float64
	GANLossG   []float64
	GANLossD   []float64
	TargetProb []float64 // detector's target-class probability at the victim
	GradNorm   []float64 // L2 of the gradient reaching the patch layer
}

// trajectoryPools groups training frames: dynamic windows (consecutive
// frames of moving approaches) and static frames (stationary shots — what
// classic single-frame patch attacks train on).
type trajectoryPools struct {
	dynamic [][]scene.TrajectoryStep
	static  []scene.TrajectoryStep
}

// buildPools renders the training trajectories for a scene. Dynamic pools
// cover the speed and angle challenges; static pools stationary cameras at
// several distances.
func buildPools(cam scene.Camera, sc Scene, rng *rand.Rand) trajectoryPools {
	var p trajectoryPools
	for _, name := range []string{"slow", "normal", "fast", "angle-15", "angle0", "angle+15"} {
		ch := scene.Challenges(name)[0]
		steps := filterVisible(scene.BuildTrajectory(cam, ch, sc.TargetGX, sc.TargetGY, rng), sc)
		if len(steps) > 0 {
			p.dynamic = append(p.dynamic, steps)
		}
	}
	for _, name := range []string{"fix", "slight"} {
		ch := scene.Challenges(name)[0]
		ch.Frames = 10
		for _, dist := range []float64{3, 4, 5, 6.5, 8} {
			ch.StartDist = dist
			steps := filterVisible(scene.BuildTrajectory(cam, ch, sc.TargetGX, sc.TargetGY, rng), sc)
			p.static = append(p.static, steps...)
		}
	}
	return p
}

// filterVisible drops steps where the target projects out of frame.
func filterVisible(steps []scene.TrajectoryStep, sc Scene) []scene.TrajectoryStep {
	var out []scene.TrajectoryStep
	for _, st := range steps {
		if _, ok := st.Cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1); ok {
			out = append(out, st)
		}
	}
	return out
}

// sampleWindow picks the training frames for one iteration. Consecutive
// mode returns a window of WindowFrames successive steps from one moving
// trajectory (Sec. III-B); otherwise it draws i.i.d. stationary frames (the
// static-case setting of prior work and the "w/o 3 consecutive frames"
// ablation).
func (p trajectoryPools) sampleWindow(rng *rand.Rand, consecutive bool, w int) []scene.TrajectoryStep {
	if consecutive && len(p.dynamic) > 0 {
		// A stationary camera's video is also consecutive frames; mixing
		// parked windows in keeps the near-stationary views (where the AV
		// dwells longest) represented alongside the approaches.
		if rng.Float64() < 0.35 {
			st := p.static[rng.Intn(len(p.static))]
			out := make([]scene.TrajectoryStep, w)
			for i := range out {
				out[i] = st
			}
			return out
		}
		traj := p.dynamic[rng.Intn(len(p.dynamic))]
		if len(traj) <= w {
			return traj
		}
		start := rng.Intn(len(traj) - w)
		return traj[start : start+w]
	}
	out := make([]scene.TrajectoryStep, w)
	for i := range out {
		out[i] = p.static[rng.Intn(len(p.static))]
	}
	return out
}

// forwardFrames renders the decaled texture through a window with fresh EOT
// samples and runs the detector's attack loss. It returns the loss, the
// texture gradient, and the mean target probability. Each frame's EOT draw
// is journaled on sp (free when tracing is off).
func forwardFrames(det *yolo.Model, g *scene.Ground, decaled *tensor.Tensor, window []scene.TrajectoryStep,
	sampler *eot.Sampler, rng *rand.Rand, sc Scene, targetClass scene.Class,
	sp *obs.Span, it int) (float64, *tensor.Tensor, float64, error) {

	w := len(window)
	imgH, imgW := window[0].Cam.ImgH, window[0].Cam.ImgW
	batch := tensor.New(w, 3, imgH, imgW)
	graphs := make([]*frameGraph, w)
	targets := make([]yolo.AttackTarget, w)
	sz := 3 * imgH * imgW
	for i, st := range window {
		applied := sampler.Sample(rng, imgH, imgW)
		sp.EOT(obs.EOTDraw{
			It: it, Frame: i,
			Resize: applied.Params.Resize, Rotation: applied.Params.Rotation,
			Bright: applied.Params.Bright, Gamma: applied.Params.Gamma, Persp: applied.Params.Persp,
		})
		img, fg, err := renderTrainFrame(g, decaled, st, applied)
		if err != nil {
			return 0, nil, 0, err
		}
		copy(batch.Data()[i*sz:(i+1)*sz], img.Data())
		graphs[i] = fg
		box, ok := st.Cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1)
		if ok {
			// The EOT geometry moved the scene inside the frame; the attack
			// loss must hit the cells where the target actually landed.
			cx, cy, w, h, valid := applied.MapBox(box.CX, box.CY, box.W, box.H)
			if valid {
				box = scene.Box{CX: cx, CY: cy, W: w, H: h}
			} else {
				ok = false
			}
		}
		if !ok {
			box = scene.Box{CX: -100, CY: -100, W: 1, H: 1} // contributes nothing
		}
		targets[i] = yolo.AttackTarget{Box: box, Class: targetClass}
	}

	det.SetTraining(false)
	heads := det.Forward(batch)
	loss, dHeads := det.AttackLoss(heads, targets, yolo.DefaultAttackLossWeights())
	prob := 0.0
	for i := range targets {
		prob += det.TargetClassProb(heads, targets[i], i)
	}
	prob /= float64(w)

	dBatch := det.Backward(dHeads) // input gradient only: the trainers freeze det

	var dTex *tensor.Tensor
	for i := range graphs {
		dImg := tensor.FromSlice(append([]float64(nil), dBatch.Data()[i*sz:(i+1)*sz]...), 3, imgH, imgW)
		dt := graphs[i].backward(dImg)
		if dTex == nil {
			dTex = dt
		} else {
			dTex.AddInPlace(dt)
		}
	}
	tensor.AssertFiniteScalar("attack loss", loss)
	tensor.AssertFinite("texture gradient", dTex)
	return loss, dTex, prob, nil
}

// inkStats summarizes a print-ready layer for observability: mean ink
// coverage and the fraction of pixels more ink than paper. Low values paint
// ink (the composite's transparency convention), so ink = 1 - v. With a
// mask, only silhouette pixels (mask > 0.5) count; a nil mask (the colored
// baseline) averages the whole layer.
func inkStats(layer, mask *tensor.Tensor) (mean, frac float64) {
	ld := layer.Data()
	n := 0
	if mask == nil {
		for _, v := range ld {
			mean += 1 - v
			if v < 0.5 {
				frac++
			}
		}
		n = len(ld)
	} else {
		md := mask.Data()
		for i, m := range md {
			if m > 0.5 {
				mean += 1 - ld[i]
				if ld[i] < 0.5 {
					frac++
				}
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return mean / float64(n), frac / float64(n)
}

// combinedVerify scores a candidate patch the way the paper's protocol
// does: digital verification first, then a printed spot-check; the kept
// artifact must work in both worlds.
func combinedVerify(det *yolo.Model, cam scene.Camera, sc Scene, p *Patch, rng *rand.Rand) float64 {
	dig, err := VerifyDigital(det, cam, sc, p, rng)
	if err != nil {
		return 0
	}
	phy, err := VerifyChannel(det, cam, sc, p, physical.RealWorld(), rng)
	if err != nil {
		return dig / 2
	}
	return (dig + 2*phy) / 3
}

// printExpectation maps patch values to their expected printed appearance
// (the print channel's gamut compression with unit luma gain). Optimizing
// the patch as it will look *after* printing extends EOT's
// expectation-over-transformation philosophy to the print channel; the
// attacker knows their own printer. The returned closure converts dOut to
// dPatch (the map is affine).
func printExpectation(p *tensor.Tensor) (*tensor.Tensor, func(d *tensor.Tensor) *tensor.Tensor) {
	m := physical.DefaultPrintModel()
	span := m.GamutHigh - m.GamutLow
	out := p.Map(func(v float64) float64 { return m.GamutLow + span*v })
	backward := func(d *tensor.Tensor) *tensor.Tensor {
		return d.Map(func(v float64) float64 { return span * v })
	}
	return out, backward
}

// Train runs the paper's attack: the GAN generator is optimized with Eq. 1
// (adversarial realism toward Four Shapes + α-weighted targeted detector
// attack through EOT, ground compositing and the moving camera). It returns
// the final monochrome patch. tr receives the structured run trace (nil
// disables tracing; obs.TextTrace restores the historical log lines).
func Train(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace) (*Patch, *TrainStats, error) {
	return train(det, cam, sc, cfg, tr, method{name: "ours", restarts: true, snapEvery: 10}, newGANSource)
}

// TrainDirect is the GAN-free ablation of our attack: the monochrome,
// shape-masked layer is optimized directly with Adam (no realism term).
// It isolates the attack pipeline from the GAN balance and shows what the
// α-weighted term alone can achieve.
func TrainDirect(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace) (*Patch, *TrainStats, error) {
	return train(det, cam, sc, cfg, tr, method{name: "direct", snapEvery: 20}, newDirectSource)
}

// TrainBaseline implements [34] (Sava et al.) as the paper describes it:
// a colored patch optimized directly with Adam under a rich EOT set, on
// static frames (single-frame attack), with no GAN shape constraint.
func TrainBaseline(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace) (*Patch, *TrainStats, error) {
	// "they utilized many EOT techniques", on static single frames.
	return train(det, cam, sc, cfg, tr, method{name: "baseline", snapEvery: 20, static: true, allTricks: true}, newColoredSource)
}

// method holds the fixed choices that tell the attack methods apart in the
// shared loop; everything else about a method lives in its patchSource.
type method struct {
	name      string // the journal's "method" attribute
	restarts  bool   // split long runs into restart segments, each its own span
	snapEvery int    // iterations between verified snapshots
	static    bool   // i.i.d. stationary frames whatever cfg.Consecutive says
	allTricks bool   // every EOT trick whatever cfg.Tricks says
}

// A patchSource is one parameterisation of the decal: the GAN generator of
// Eq. 1, the GAN-free gray layer, or the colored baseline of [34]. It owns
// its parameters and optimiser; train owns the loop around it.
type patchSource interface {
	// restart begins a new restart segment (methods with restarts only).
	restart(rng *rand.Rand)
	// preWindow runs before the iteration's frames are drawn, on the span
	// that receives the iteration's records.
	preWindow(sp *obs.Span, it, segIt, segLen int, rng *rand.Rand)
	// decal composites the current patch onto the ground texture. step
	// takes the texture's attack gradient back to the parameters and
	// updates them.
	decal(sc Scene) (decaled *tensor.Tensor, step func(dTex *tensor.Tensor) stepReport, err error)
	// candidate is the patch as it would be printed now.
	candidate() *Patch
}

// stepReport is what one update tells the loop for TrainStats and the
// journal's iter record.
type stepReport struct {
	ganG, ganD float64        // realism losses (zero without a GAN)
	alpha, lr  float64        // weight on the attack term; learning rate used
	grad       *tensor.Tensor // gradient that reached the patch layer
	ink, mask  *tensor.Tensor // print-ready layer for inkStats (nil mask: all of it)
}

// train is the attack loop every method shares. Each iteration draws a
// window of frames, renders the source's decal through EOT, the print
// channel and compositing, takes the frozen detector's attack gradient and
// hands it back to the source. The returned patch is the best
// digitally-verified snapshot, per the paper's confirm-digitally-first
// protocol.
func train(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace,
	m method, newSource func(Config, *rand.Rand) patchSource) (*Patch, *TrainStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pools := buildPools(cam, sc, rng)
	if len(pools.static) == 0 {
		return nil, nil, fmt.Errorf("attack: target never visible from training cameras")
	}
	defer nn.Freeze(det.Params())() // white-box victim: image gradient only
	src := newSource(cfg, rng)
	root := tr.Span("train", obs.S("method", m.name), obs.I("iters", cfg.Iters), obs.I64("seed", cfg.Seed))
	defer root.End()
	tricks := cfg.Tricks
	if m.allTricks {
		tricks = eot.AllTricks()
	}
	sampler := eot.NewSampler(tricks)
	stats := &TrainStats{}

	verifyRng := rand.New(rand.NewSource(cfg.Seed + 777))
	var best *Patch
	bestScore := -1.0
	snapshot := func(it int) {
		cand := src.candidate()
		score := combinedVerify(det, cam, sc, cand, verifyRng)
		kept := score > bestScore
		if kept {
			bestScore, best = score, cand
		}
		root.Verify(obs.VerifyStats{It: it, Score: score, Best: bestScore, Kept: kept})
	}

	// Random restarts: the targeted flip lives on a narrow manifold, so a
	// single trajectory may never touch it. Split the budget into segments
	// with a fresh start each; snapshots are kept across segments.
	segments := 1
	if m.restarts && cfg.Iters >= 120 {
		segments = 3
	}
	segLen := cfg.Iters / segments
	seg, sp := 0, root
	if m.restarts {
		sp = root.Child("segment", obs.I("seg", 0))
		defer func() { sp.End() }()
	}

	for it := 0; it < cfg.Iters; it++ {
		segIt := it % segLen
		if it > 0 && segIt == 0 && it/segLen < segments {
			seg = it / segLen
			src.restart(rng)
			sp.End()
			sp = root.Child("segment", obs.I("seg", seg))
		}
		src.preWindow(sp, it, segIt, segLen, rng)
		window := pools.sampleWindow(rng, cfg.Consecutive && !m.static, cfg.WindowFrames)
		decaled, step, err := src.decal(sc)
		if err != nil {
			return nil, nil, err
		}
		attack, dTex, prob, err := forwardFrames(det, sc.Ground, decaled, window, sampler, rng, sc, cfg.TargetClass, sp, it)
		if err != nil {
			return nil, nil, err
		}
		rep := step(dTex)
		gradNorm := rep.grad.L2()

		stats.AttackLoss = append(stats.AttackLoss, attack)
		stats.GANLossD = append(stats.GANLossD, rep.ganD)
		stats.GANLossG = append(stats.GANLossG, rep.ganG)
		stats.TargetProb = append(stats.TargetProb, prob)
		stats.GradNorm = append(stats.GradNorm, gradNorm)
		if cfg.Iters >= 40 && segIt >= segLen/4 && it%m.snapEvery == 0 {
			snapshot(it)
		}
		if sp.Enabled() {
			// The ink summary only exists for the journal; compute it under
			// the enabled check so a nil trace stays free.
			inkMean, inkFrac := inkStats(rep.ink, rep.mask)
			sp.Iter(obs.IterStats{
				Method: m.name, It: it, Seg: seg, Final: it == cfg.Iters-1,
				Attack: attack, Alpha: rep.alpha, Weighted: rep.alpha * attack,
				GanG: rep.ganG, GanD: rep.ganD, Total: rep.ganG + rep.alpha*attack,
				PTarget: prob, GradNorm: gradNorm, LR: rep.lr,
				InkMean: inkMean, InkFrac: inkFrac, Best: bestScore,
			})
		}
	}
	snapshot(cfg.Iters - 1)
	if best == nil {
		best = src.candidate()
	}
	return best, stats, nil
}

// grayDecal composites a monochrome layer onto the ground as it will print:
// print expectation, silhouette mask, ink compositing. It returns the
// decaled texture, the masked print-ready layer, and the map from a
// texture gradient back to the layer.
func grayDecal(sc Scene, cfg Config, layer, mask *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, func(*tensor.Tensor) *tensor.Tensor, error) {
	printed, printBwd := printExpectation(layer)
	masked, maskBwd := imaging.ApplyShapeMask(printed, mask)
	decaled, gcomp, err := applyGrayDecals(sc.Ground, sc.Ground.Tex, masked, Placements(cfg, sc.TargetGX, sc.TargetGY), cfg.Ink)
	if err != nil {
		return nil, nil, nil, err
	}
	return decaled, masked, func(dTex *tensor.Tensor) *tensor.Tensor { return printBwd(maskBwd(gcomp.backward(dTex))) }, nil
}

// ganSource is our attack's parameterisation: the generator's output for a
// fixed latent zStar, trained against the detector and a Four Shapes
// discriminator (Eq. 1).
type ganSource struct {
	cfg        Config
	mask       *tensor.Tensor
	g          *gan.Generator
	d          *gan.Discriminator
	optG, optD *optim.Adam
	zStar      *tensor.Tensor // the z that will be "printed"
	lr         float64        // generator LR after step decay
	lastD      float64        // most recent discriminator loss (the D-step gate)
}

func newGANSource(cfg Config, rng *rand.Rand) patchSource {
	s := &ganSource{cfg: cfg, lastD: 2 * math.Ln2} // start at the chance-level BCE
	s.g = gan.NewGenerator(rng)
	s.d = gan.NewDiscriminator(rng)
	s.optG = optim.NewAdam(s.g.Params(), cfg.LRG)
	s.optD = optim.NewAdam(s.d.Params(), cfg.LRD)
	s.mask = shapes.Mask(cfg.Shape, gan.PatchRes, cfg.ShapeScale(), 0)
	s.zStar = gan.SampleZ(rng, 1)
	return s
}

// restart gives the segment a fresh generator and optimizer; D persists.
func (s *ganSource) restart(rng *rand.Rand) {
	s.g = gan.NewGenerator(rng)
	s.optG = optim.NewAdam(s.g.Params(), s.cfg.LRG)
	s.zStar = gan.SampleZ(rng, 1)
}

// preWindow step-decays the generator LR and takes the discriminator step.
func (s *ganSource) preWindow(sp *obs.Span, it, segIt, segLen int, rng *rand.Rand) {
	// Step-decay the generator LR for a stable final patch.
	switch {
	case segLen >= 10 && segIt == segLen*17/20:
		s.lr = s.cfg.LRG * 0.1
	case segLen >= 10 && segIt == segLen*3/5:
		s.lr = s.cfg.LRG * 0.3
	case segIt == 0:
		s.lr = s.cfg.LRG
	}
	s.optG.SetLR(s.lr)
	// Updating D (real Four Shapes vs generated) only every other iteration,
	// and not at all once it confidently separates, keeps the realism term
	// from saturating the patch into a solid silhouette, which would zero
	// the attack gradient through the generator's output sigmoid.
	if it%2 == 0 && s.lastD > 0.1 {
		const dBatch = 6
		real := shapes.Samples(rng, s.cfg.Shape, gan.PatchRes, dBatch)
		zD := gan.SampleZ(rng, dBatch)
		fakes := s.g.Forward(zD) // detached: no G backward from this pass
		nn.ZeroGrads(s.d.Params())
		s.lastD = gan.TracedDiscriminatorStep(sp, it, s.d, real, fakes)
		s.optD.Step()
		nn.ZeroGrads(s.d.Params())
	}
}

// decal runs the generator; step takes GAN realism + α · attack back
// through it.
func (s *ganSource) decal(sc Scene) (*tensor.Tensor, func(*tensor.Tensor) stepReport, error) {
	r := gan.PatchRes
	patch4 := s.g.Forward(s.zStar) // [1,1,R,R]
	decaled, masked, back, err := grayDecal(sc, s.cfg, patch4.Reshape(1, r, r), s.mask)
	if err != nil {
		return nil, nil, err
	}
	return decaled, func(dTex *tensor.Tensor) stepReport {
		dRaw := back(dTex).Scale(s.cfg.Alpha)
		restoreD := nn.Freeze(s.d.Params()) // adversarial grad must not move D
		lossG, dFake := gan.GeneratorAdversarialGrad(s.d, patch4)
		restoreD()
		dPatch := dFake.Reshape(1, r, r).Clone().AddInPlace(dRaw)
		tensor.AssertFinite("patch gradient", dPatch)

		nn.ZeroGrads(s.g.Params())
		s.g.Backward(dPatch.Reshape(1, 1, r, r))
		optim.ClipGradNorm(s.g.Params(), 5)
		s.optG.Step()
		return stepReport{ganG: lossG, ganD: s.lastD, alpha: s.cfg.Alpha, lr: s.lr, grad: dPatch, ink: masked, mask: s.mask}
	}, nil
}

func (s *ganSource) candidate() *Patch {
	s.g.SetTraining(false)
	defer s.g.SetTraining(true)
	return &Patch{Gray: s.g.Forward(s.zStar).Reshape(1, gan.PatchRes, gan.PatchRes).Clone(), Mask: s.mask.Clone(), Cfg: s.cfg}
}

// pixelSource optimises the patch's pixels directly with Adam, clamped to
// [0,1]: the part the direct and colored sources share. Neither restarts.
type pixelSource struct {
	cfg   Config
	param *nn.Param
	opt   *optim.Adam
	lr    float64
}

func newPixelSource(cfg Config, name string, init *tensor.Tensor, lr float64) pixelSource {
	param := nn.NewParam(name, init)
	return pixelSource{cfg: cfg, param: param, opt: optim.NewAdam([]*nn.Param{param}, lr), lr: lr}
}

func (*pixelSource) restart(*rand.Rand)                             {}
func (*pixelSource) preWindow(*obs.Span, int, int, int, *rand.Rand) {}

// layer clamps the pixels into a printable layer. update takes the layer's
// gradient through the clamp, steps Adam, and returns the gradient.
func (s *pixelSource) layer() (layer *tensor.Tensor, update func(dLayer *tensor.Tensor) *tensor.Tensor) {
	clamp := imaging.NewClampUnit()
	return clamp.Forward(s.param.Value), func(dLayer *tensor.Tensor) *tensor.Tensor {
		s.param.Grad.Zero()
		s.param.Grad.AddInPlace(clamp.Backward(dLayer))
		tensor.AssertFinite("patch gradient", s.param.Grad)
		s.opt.Step()
		s.param.Value.Clamp(0, 1)
		return s.param.Grad
	}
}

// directSource is the GAN-free ablation: gray pixels behind the silhouette
// mask, composited like our decal.
type directSource struct {
	pixelSource
	mask *tensor.Tensor
}

func newDirectSource(cfg Config, rng *rand.Rand) patchSource {
	r := gan.PatchRes
	return &directSource{
		pixelSource: newPixelSource(cfg, "direct.patch", tensor.NewRandU(rng, 0.05, 0.45, 1, r, r), 0.05),
		mask:        shapes.Mask(cfg.Shape, r, cfg.ShapeScale(), 0),
	}
}

func (s *directSource) decal(sc Scene) (*tensor.Tensor, func(*tensor.Tensor) stepReport, error) {
	layer, update := s.layer()
	decaled, masked, back, err := grayDecal(sc, s.cfg, layer, s.mask)
	if err != nil {
		return nil, nil, err
	}
	return decaled, func(dTex *tensor.Tensor) stepReport {
		return stepReport{alpha: 1, lr: s.lr, grad: update(back(dTex)), ink: masked, mask: s.mask}
	}, nil
}

func (s *directSource) candidate() *Patch {
	return &Patch{Gray: s.param.Value.Clone(), Mask: s.mask.Clone(), Cfg: s.cfg}
}

// coloredSource is the baseline of [34]: a full-square RGB sticker.
type coloredSource struct{ pixelSource }

func newColoredSource(cfg Config, rng *rand.Rand) patchSource {
	r := gan.PatchRes
	return &coloredSource{newPixelSource(cfg, "baseline.patch", tensor.NewRandU(rng, 0.25, 0.75, 3, r, r), 0.03)}
}

func (s *coloredSource) decal(sc Scene) (*tensor.Tensor, func(*tensor.Tensor) stepReport, error) {
	layer, update := s.layer()
	printed, printBwd := printExpectation(layer)
	decaled, rcomp, err := applyRGBDecals(sc.Ground, sc.Ground.Tex, printed, Placements(s.cfg, sc.TargetGX, sc.TargetGY))
	if err != nil {
		return nil, nil, err
	}
	return decaled, func(dTex *tensor.Tensor) stepReport {
		return stepReport{alpha: 1, lr: s.lr, grad: update(printBwd(rcomp.backward(dTex))), ink: layer}
	}, nil
}

func (s *coloredSource) candidate() *Patch { return &Patch{RGB: s.param.Value.Clone(), Cfg: s.cfg} }
