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

// TrainStats traces the optimization.
type TrainStats struct {
	AttackLoss []float64
	GANLossG   []float64
	GANLossD   []float64
	TargetProb []float64 // detector's target-class probability at the victim
	GradNorm   []float64 // L2 of the attack gradient reaching the patch

	lastD float64 // most recent discriminator loss (for the D-step gate)
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
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pools := buildPools(cam, sc, rng)
	if len(pools.static) == 0 {
		return nil, nil, fmt.Errorf("attack: target never visible from training cameras")
	}
	defer nn.Freeze(det.Params())() // white-box victim: image gradient only
	root := tr.Span("train", obs.S("method", "ours"), obs.I("iters", cfg.Iters), obs.I64("seed", cfg.Seed))

	g := gan.NewGenerator(rng)
	d := gan.NewDiscriminator(rng)
	optG := optim.NewAdam(g.Params(), cfg.LRG)
	optD := optim.NewAdam(d.Params(), cfg.LRD)
	sampler := eot.NewSampler(cfg.Tricks)

	r := gan.PatchRes
	mask := shapes.Mask(cfg.Shape, r, cfg.ShapeScale(), 0)
	zStar := gan.SampleZ(rng, 1)              // the z that will be "printed"
	stats := &TrainStats{lastD: 2 * math.Ln2} // start at the chance-level BCE

	// Random restarts: the targeted flip lives on a narrow manifold, so a
	// single Adam trajectory may never touch it. Split the budget into
	// segments with a fresh generator each; the printed artifact is the best
	// digitally-verified snapshot across segments (the paper's protocol
	// confirms digital success before deploying).
	segments := 1
	if cfg.Iters >= 120 {
		segments = 3
	}
	segLen := cfg.Iters / segments
	verifyRng := rand.New(rand.NewSource(cfg.Seed + 777))
	bestPatch := (*Patch)(nil)
	bestScore := -1.0
	snapshot := func(it int) {
		g.SetTraining(false)
		cand := &Patch{Gray: g.Forward(zStar).Reshape(1, r, r).Clone(), Mask: mask.Clone(), Cfg: cfg}
		g.SetTraining(true)
		score := combinedVerify(det, cam, sc, cand, verifyRng)
		kept := score > bestScore
		if kept {
			bestScore, bestPatch = score, cand
		}
		root.Verify(obs.VerifyStats{It: it, Score: score, Best: bestScore, Kept: kept})
	}

	curSeg := 0
	curLR := cfg.LRG
	segSpan := root.Child("segment", obs.I("seg", 0))
	defer func() {
		segSpan.End()
		root.End()
	}()

	const dBatch = 6
	for it := 0; it < cfg.Iters; it++ {
		segIt := it % segLen
		if it > 0 && segIt == 0 && it/segLen < segments {
			// New segment: fresh generator and optimizer; D persists.
			g = gan.NewGenerator(rng)
			optG = optim.NewAdam(g.Params(), cfg.LRG)
			zStar = gan.SampleZ(rng, 1)
			curSeg = it / segLen
			segSpan.End()
			segSpan = root.Child("segment", obs.I("seg", curSeg))
		}
		// Step-decay the generator LR for a stable final patch.
		switch {
		case segLen >= 10 && segIt == segLen*17/20:
			curLR = cfg.LRG * 0.1
			optG.SetLR(curLR)
		case segLen >= 10 && segIt == segLen*3/5:
			curLR = cfg.LRG * 0.3
			optG.SetLR(curLR)
		case segIt == 0:
			curLR = cfg.LRG
			optG.SetLR(curLR)
		}
		// --- discriminator step (real Four Shapes vs generated) ---------
		// Updating D only every other iteration (and not at all once it
		// confidently separates) keeps the realism term from saturating the
		// patch into a solid silhouette, which would zero the attack
		// gradient through the generator's output sigmoid.
		lossD := stats.lastD
		if it%2 == 0 && stats.lastD > 0.1 {
			real := shapes.Samples(rng, cfg.Shape, r, dBatch)
			zD := gan.SampleZ(rng, dBatch)
			fakes := g.Forward(zD) // detached: no G backward from this pass
			nn.ZeroGrads(d.Params())
			lossD = gan.TracedDiscriminatorStep(segSpan, it, d, real, fakes)
			optD.Step()
			nn.ZeroGrads(d.Params())
			stats.lastD = lossD
		}

		// --- generator step: GAN realism + α · attack --------------------
		window := pools.sampleWindow(rng, cfg.Consecutive, cfg.WindowFrames)
		patch4 := g.Forward(zStar) // [1,1,R,R]
		layer := patch4.Reshape(1, r, r)
		printed, printBwd := printExpectation(layer)
		masked, maskBwd := imaging.ApplyShapeMask(printed, mask)
		decaled, gcomp, err := applyGrayDecals(sc.Ground, sc.Ground.Tex, masked, Placements(cfg, sc.TargetGX, sc.TargetGY), cfg.Ink)
		if err != nil {
			return nil, nil, err
		}
		attackLoss, dTex, prob, err := forwardFrames(det, sc.Ground, decaled, window, sampler, rng, sc, cfg.TargetClass, segSpan, it)
		if err != nil {
			return nil, nil, err
		}
		dLayer := gcomp.backward(dTex)
		dRaw := printBwd(maskBwd(dLayer)).Scale(cfg.Alpha)

		restoreD := nn.Freeze(d.Params()) // adversarial grad must not move D
		lossG, dFake := gan.GeneratorAdversarialGrad(d, patch4)
		restoreD()
		dPatch := dFake.Reshape(1, r, r).Clone().AddInPlace(dRaw)
		tensor.AssertFinite("patch gradient", dPatch)

		nn.ZeroGrads(g.Params())
		g.Backward(dPatch.Reshape(1, 1, r, r))
		optim.ClipGradNorm(g.Params(), 5)
		optG.Step()

		stats.AttackLoss = append(stats.AttackLoss, attackLoss)
		stats.GANLossD = append(stats.GANLossD, lossD)
		stats.GANLossG = append(stats.GANLossG, lossG)
		stats.TargetProb = append(stats.TargetProb, prob)
		// Snapshot selection: the attacker prints the best patch seen, per
		// the paper's confirm-digitally-first protocol.
		if cfg.Iters >= 40 && segIt >= segLen/4 && it%10 == 0 {
			snapshot(it)
		}
		if segSpan.Enabled() {
			// The ink and gradient summaries only exist for the journal;
			// compute them under the enabled check so a nil trace stays free.
			inkMean, inkFrac := inkStats(masked, mask)
			segSpan.Iter(obs.IterStats{
				Method: "ours", It: it, Seg: curSeg, Final: it == cfg.Iters-1,
				Attack: attackLoss, Alpha: cfg.Alpha, Weighted: cfg.Alpha * attackLoss,
				GanG: lossG, GanD: lossD, Total: lossG + cfg.Alpha*attackLoss,
				PTarget: prob, GradNorm: dPatch.L2(), LR: curLR,
				InkMean: inkMean, InkFrac: inkFrac, Best: bestScore,
			})
		}
	}
	snapshot(cfg.Iters - 1)
	if bestPatch != nil {
		return bestPatch, stats, nil
	}
	g.SetTraining(false)
	final := g.Forward(zStar).Reshape(1, r, r).Clone()
	return &Patch{Gray: final, Mask: mask.Clone(), Cfg: cfg}, stats, nil
}

// TrainDirect is the GAN-free ablation of our attack: the monochrome,
// shape-masked layer is optimized directly with Adam (no realism term).
// It isolates the attack pipeline from the GAN balance and shows what the
// α-weighted term alone can achieve.
func TrainDirect(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace) (*Patch, *TrainStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pools := buildPools(cam, sc, rng)
	if len(pools.static) == 0 {
		return nil, nil, fmt.Errorf("attack: target never visible from training cameras")
	}
	defer nn.Freeze(det.Params())() // white-box victim: image gradient only
	root := tr.Span("train", obs.S("method", "direct"), obs.I("iters", cfg.Iters), obs.I64("seed", cfg.Seed))
	defer root.End()
	r := gan.PatchRes
	mask := shapes.Mask(cfg.Shape, r, cfg.ShapeScale(), 0)
	param := nn.NewParam("direct.patch", tensor.NewRandU(rng, 0.05, 0.45, 1, r, r))
	const directLR = 0.05
	opt := optim.NewAdam([]*nn.Param{param}, directLR)
	sampler := eot.NewSampler(cfg.Tricks)
	stats := &TrainStats{}
	verifyRng := rand.New(rand.NewSource(cfg.Seed + 777))
	bestPatch := (*Patch)(nil)
	bestScore := -1.0
	snapshot := func(it int) {
		cand := &Patch{Gray: param.Value.Clone(), Mask: mask.Clone(), Cfg: cfg}
		score := combinedVerify(det, cam, sc, cand, verifyRng)
		kept := score > bestScore
		if kept {
			bestScore, bestPatch = score, cand
		}
		root.Verify(obs.VerifyStats{It: it, Score: score, Best: bestScore, Kept: kept})
	}

	for it := 0; it < cfg.Iters; it++ {
		window := pools.sampleWindow(rng, cfg.Consecutive, cfg.WindowFrames)
		clamp := imaging.NewClampUnit()
		layer := clamp.Forward(param.Value)
		printed, printBwd := printExpectation(layer)
		masked, maskBwd := imaging.ApplyShapeMask(printed, mask)
		decaled, gcomp, err := applyGrayDecals(sc.Ground, sc.Ground.Tex, masked, Placements(cfg, sc.TargetGX, sc.TargetGY), cfg.Ink)
		if err != nil {
			return nil, nil, err
		}
		attackLoss, dTex, prob, err := forwardFrames(det, sc.Ground, decaled, window, sampler, rng, sc, cfg.TargetClass, root, it)
		if err != nil {
			return nil, nil, err
		}
		dLayer := gcomp.backward(dTex)
		dRaw := clamp.Backward(printBwd(maskBwd(dLayer)))
		tensor.AssertFinite("direct patch gradient", dRaw)
		param.Grad.Zero()
		param.Grad.AddInPlace(dRaw)
		opt.Step()
		param.Value.Clamp(0, 1)

		stats.AttackLoss = append(stats.AttackLoss, attackLoss)
		stats.TargetProb = append(stats.TargetProb, prob)
		stats.GradNorm = append(stats.GradNorm, dRaw.L2())
		if cfg.Iters >= 40 && it >= cfg.Iters/4 && it%20 == 0 {
			snapshot(it)
		}
		if root.Enabled() {
			inkMean, inkFrac := inkStats(masked, mask)
			root.Iter(obs.IterStats{
				Method: "direct", It: it, Seg: 0, Final: it == cfg.Iters-1,
				Attack: attackLoss, Alpha: 1, Weighted: attackLoss, Total: attackLoss,
				PTarget: prob, GradNorm: dRaw.L2(), LR: directLR,
				InkMean: inkMean, InkFrac: inkFrac, Best: bestScore,
			})
		}
	}
	snapshot(cfg.Iters - 1)
	if bestPatch != nil {
		return bestPatch, stats, nil
	}
	return &Patch{Gray: param.Value.Clone(), Mask: mask.Clone(), Cfg: cfg}, stats, nil
}

// stripeInit seeds direct optimization with a horizontal-stripe pattern
// plus noise. Low values paint ink (the composite's transparency
// convention), so alternating bands reproduce the periodic paint/no-paint
// structure of road lettering — a warm start inside the target class's
// feature manifold rather than a random one far from it.
func stripeInit(rng *rand.Rand, r int) *tensor.Tensor {
	t := tensor.New(1, r, r)
	period := r / 5
	if period < 2 {
		period = 2
	}
	for y := 0; y < r; y++ {
		base := 0.85
		if (y/period)%2 == 0 {
			base = 0.12 // inked band
		}
		for x := 0; x < r; x++ {
			t.Set(base+rng.Float64()*0.1, 0, y, x)
		}
	}
	return t
}

// TrainBaseline implements [34] (Sava et al.) as the paper describes it:
// a colored patch optimized directly with Adam under a rich EOT set, on
// static frames (single-frame attack), with no GAN shape constraint.
func TrainBaseline(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace) (*Patch, *TrainStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pools := buildPools(cam, sc, rng)
	if len(pools.static) == 0 {
		return nil, nil, fmt.Errorf("attack: target never visible from training cameras")
	}
	defer nn.Freeze(det.Params())() // white-box victim: image gradient only
	root := tr.Span("train", obs.S("method", "baseline"), obs.I("iters", cfg.Iters), obs.I64("seed", cfg.Seed))
	defer root.End()
	r := gan.PatchRes
	param := nn.NewParam("baseline.patch", tensor.NewRandU(rng, 0.25, 0.75, 3, r, r))
	const baselineLR = 0.03
	opt := optim.NewAdam([]*nn.Param{param}, baselineLR)
	sampler := eot.NewSampler(eot.AllTricks()) // "they utilized many EOT techniques"
	stats := &TrainStats{}
	verifyRng := rand.New(rand.NewSource(cfg.Seed + 777))
	bestPatch := (*Patch)(nil)
	bestScore := -1.0
	snapshot := func(it int) {
		cand := &Patch{RGB: param.Value.Clone(), Cfg: cfg}
		score := combinedVerify(det, cam, sc, cand, verifyRng)
		kept := score > bestScore
		if kept {
			bestScore, bestPatch = score, cand
		}
		root.Verify(obs.VerifyStats{It: it, Score: score, Best: bestScore, Kept: kept})
	}

	for it := 0; it < cfg.Iters; it++ {
		window := pools.sampleWindow(rng, false /* static single frames */, cfg.WindowFrames)
		clamp := imaging.NewClampUnit()
		layerRaw := clamp.Forward(param.Value)
		layer, printBwd := printExpectation(layerRaw)
		decaled, rcomp, err := applyRGBDecals(sc.Ground, sc.Ground.Tex, layer, Placements(cfg, sc.TargetGX, sc.TargetGY))
		if err != nil {
			return nil, nil, err
		}
		attackLoss, dTex, prob, err := forwardFrames(det, sc.Ground, decaled, window, sampler, rng, sc, cfg.TargetClass, root, it)
		if err != nil {
			return nil, nil, err
		}
		dLayer := rcomp.backward(dTex)
		param.Grad.Zero()
		param.Grad.AddInPlace(clamp.Backward(printBwd(dLayer)))
		tensor.AssertFinite("baseline patch gradient", param.Grad)
		opt.Step()
		param.Value.Clamp(0, 1)

		stats.AttackLoss = append(stats.AttackLoss, attackLoss)
		stats.TargetProb = append(stats.TargetProb, prob)
		if cfg.Iters >= 40 && it >= cfg.Iters/4 && it%20 == 0 {
			snapshot(it)
		}
		if root.Enabled() {
			inkMean, inkFrac := inkStats(layerRaw, nil)
			root.Iter(obs.IterStats{
				Method: "baseline", It: it, Seg: 0, Final: it == cfg.Iters-1,
				Attack: attackLoss, Alpha: 1, Weighted: attackLoss, Total: attackLoss,
				PTarget: prob, GradNorm: param.Grad.L2(), LR: baselineLR,
				InkMean: inkMean, InkFrac: inkFrac, Best: bestScore,
			})
		}
	}
	snapshot(cfg.Iters - 1)
	if bestPatch != nil {
		return bestPatch, stats, nil
	}
	return &Patch{RGB: param.Value.Clone(), Cfg: cfg}, stats, nil
}
