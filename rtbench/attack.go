package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"roadtrojan/internal/attack"
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

// attackIters is the length of one training run. From 40 iterations on,
// Train verifies a snapshot digitally and through the print channel every
// ten iterations, so each run pays for verification as real runs do.
const attackIters = 40

// attackSetups is how many times the attack environment is built.
const attackSetups = 9

// attackTrainNominalS is what one Train of attackIters iterations takes on
// the 2-core machine the benchmark was tuned on, in seconds.
const attackTrainNominalS = 9.0

type attackEnv struct {
	det *yolo.Model
	cam scene.Camera
	sc  attack.Scene
}

func newAttackEnv() (*attackEnv, error) {
	return &attackEnv{det: newDetector(), cam: scene.DefaultCamera(), sc: roadScene()}, nil
}

func attackConfig(seed int64, run int) attack.Config {
	cfg := attack.DefaultConfig()
	cfg.Iters = attackIters
	cfg.Seed = seed*1000 + int64(run)
	return cfg
}

// runAttack trains patches with attack.Train until the time is up. Each
// Train is one operation; its iterations are the latency samples.
func runAttack(o options, r *report) error {
	env, err := setUp(r, attackSetups, newAttackEnv, nil)
	if err != nil {
		return err
	}
	if o.trace {
		return traceAttack(o, r, env)
	}
	for i := 0; i < repetitions(o.seconds, attackTrainNominalS, 1); i++ {
		cfg := attackConfig(o.seed, i)
		clk := &iterClock{}
		t0 := time.Now()
		p, st, err := attack.Train(env.det, env.cam, env.sc, cfg, obs.New(clk, obs.NewLogicalClock()))
		wall := time.Since(t0)
		r.attempted++
		if err == nil {
			err = checkTrained(p, st)
		}
		if err != nil {
			r.failed++
			r.notes["error"] = err.Error()
		}
		r.samples = append(r.samples, clk.iterationMS()...)
		r.units += float64(cfg.Iters)
		r.window += wall
	}
	r.notes["iterations_per_train"] = attackIters
	return nil
}

// iterClock is an obs.Sink that only notes when each training iteration
// ends (Train emits one "iter" record per iteration). It keeps no records,
// so the trace costs Train little beyond building the records.
type iterClock struct {
	mu   sync.Mutex
	ends []time.Time
}

func (c *iterClock) Emit(rec *obs.Record) {
	if rec.Kind != "iter" {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.ends = append(c.ends, now)
	c.mu.Unlock()
}

func (c *iterClock) Flush() error { return nil }

// iterationMS returns the duration of every iteration but the first, whose
// interval also holds Train's trajectory and network set-up.
func (c *iterClock) iterationMS() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	for i := 1; i < len(c.ends); i++ {
		out = append(out, ms(c.ends[i].Sub(c.ends[i-1])))
	}
	return out
}

// checkTrained verifies a training result: the patch must survive an
// encode/decode round trip byte for byte and every recorded loss must be
// finite.
func checkTrained(p *attack.Patch, st *attack.TrainStats) error {
	enc, err := attack.EncodePatch(p)
	if err != nil {
		return fmt.Errorf("encode patch: %w", err)
	}
	back, err := attack.DecodePatch(enc)
	if err != nil {
		return fmt.Errorf("decode patch: %w", err)
	}
	again, err := attack.EncodePatch(back)
	if err != nil {
		return fmt.Errorf("re-encode patch: %w", err)
	}
	if !bytes.Equal(enc, again) {
		return errors.New("patch does not round-trip byte for byte")
	}
	if !allFinite(st.AttackLoss, st.GANLossG, st.GANLossD, st.TargetProb, st.GradNorm) {
		return errors.New("non-finite training loss")
	}
	if len(st.AttackLoss) != p.Cfg.Iters {
		return fmt.Errorf("%d iterations recorded, want %d", len(st.AttackLoss), p.Cfg.Iters)
	}
	return nil
}

// traceAttack replays Train's iterations step by step through the same
// public functions Train calls, at the same shapes, with a span around
// each call. One root span covers one iteration.
func traceAttack(o options, r *report, env *attackEnv) error {
	t := newTracer()
	for i := 0; i < repetitions(o.seconds, attackTrainNominalS, 1); i++ {
		rp, err := newReplay(env, attackConfig(o.seed, i))
		if err != nil {
			return err
		}
		r.attempted++
		for it := 0; it < rp.cfg.Iters; it++ {
			if err := rp.iteration(t, it, it == rp.cfg.Iters-1); err != nil {
				return err
			}
		}
		if !allFinite(rp.losses) {
			r.failed++
			r.notes["error"] = "non-finite attack loss in replay"
		}
	}
	b, err := reconcile(t.snapshot(), "attack.iter")
	if err != nil {
		return err
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(b.Roots) }
	r.layers["attack.traced_iter_ms"] = per(b.Whole)
	for name, d := range b.Layers {
		r.layers[name] = per(d)
	}
	r.layers["attack.unattributed_ms"] = per(b.Unattributed)
	r.notes["traced_iterations"] = b.Roots
	return writeTrace(o, r, t)
}

// writeTrace stores the spans of a traced run and notes where.
func writeTrace(o options, r *report, t *tracer) error {
	path, err := writeSpans(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed), t.snapshot())
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.notes["spans"] = path
	return nil
}

// replay is one training run's state, rebuilt from the modules Train uses.
type replay struct {
	env        *attackEnv
	cfg        attack.Config
	rng        *rand.Rand
	verifyRng  *rand.Rand
	dynamic    [][]scene.TrajectoryStep
	static     []scene.TrajectoryStep
	g          *gan.Generator
	d          *gan.Discriminator
	optG, optD *optim.Adam
	sampler    *eot.Sampler
	mask, zS   *tensor.Tensor
	lastD      float64
	losses     []float64
}

func newReplay(env *attackEnv, cfg attack.Config) (*replay, error) {
	rp := &replay{env: env, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)),
		verifyRng: rand.New(rand.NewSource(cfg.Seed + 777)), lastD: 1.386}
	sc := env.sc
	visible := func(steps []scene.TrajectoryStep) []scene.TrajectoryStep {
		var out []scene.TrajectoryStep
		for _, st := range steps {
			if _, ok := st.Cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1); ok {
				out = append(out, st)
			}
		}
		return out
	}
	for _, name := range []string{"slow", "normal", "fast", "angle-15", "angle0", "angle+15"} {
		steps := visible(scene.BuildTrajectory(env.cam, scene.Challenges(name)[0], sc.TargetGX, sc.TargetGY, rp.rng))
		if len(steps) > cfg.WindowFrames {
			rp.dynamic = append(rp.dynamic, steps)
		}
	}
	for _, name := range []string{"fix", "slight"} {
		ch := scene.Challenges(name)[0]
		ch.Frames = 10
		for _, dist := range []float64{3, 4, 5, 6.5, 8} {
			ch.StartDist = dist
			rp.static = append(rp.static, visible(scene.BuildTrajectory(env.cam, ch, sc.TargetGX, sc.TargetGY, rp.rng))...)
		}
	}
	if len(rp.dynamic) == 0 || len(rp.static) == 0 {
		return nil, errors.New("replay: target never visible from training cameras")
	}
	rp.g = gan.NewGenerator(rp.rng)
	rp.d = gan.NewDiscriminator(rp.rng)
	rp.optG = optim.NewAdam(rp.g.Params(), cfg.LRG)
	rp.optD = optim.NewAdam(rp.d.Params(), cfg.LRD)
	rp.sampler = eot.NewSampler(cfg.Tricks)
	rp.mask = shapes.Mask(cfg.Shape, gan.PatchRes, cfg.ShapeScale(), 0)
	rp.zS = gan.SampleZ(rp.rng, 1)
	return rp, nil
}

// window picks the iteration's frames as Train's consecutive mode does.
func (rp *replay) window() []scene.TrajectoryStep {
	w := rp.cfg.WindowFrames
	if rp.rng.Float64() < 0.35 {
		st := rp.static[rp.rng.Intn(len(rp.static))]
		out := make([]scene.TrajectoryStep, w)
		for i := range out {
			out[i] = st
		}
		return out
	}
	traj := rp.dynamic[rp.rng.Intn(len(rp.dynamic))]
	start := rp.rng.Intn(len(traj) - w)
	return traj[start : start+w]
}

// frameGraph is what one rendered training frame needs for its backward.
type frameGraph struct {
	camWarp *imaging.Warp
	sky     []bool
	blur    int
	applied *eot.Applied
}

// iteration runs one generator update (and, every other iteration, a
// discriminator update) as Train does, spanning each module call. final
// adds the closing snapshot verification Train runs after its loop.
func (rp *replay) iteration(t *tracer, it int, final bool) error {
	root := t.begin("attack.iter", 0)
	defer t.end(root)
	cfg, env, sc := rp.cfg, rp.env, rp.env.sc
	r := gan.PatchRes
	switch it {
	case cfg.Iters * 17 / 20:
		rp.optG.SetLR(cfg.LRG * 0.1)
	case cfg.Iters * 3 / 5:
		rp.optG.SetLR(cfg.LRG * 0.3)
	}
	if it%2 == 0 && rp.lastD > 0.1 {
		t.call("gan.d_ms", root, func() {
			real := shapes.Samples(rp.rng, cfg.Shape, r, 6)
			fakes := rp.g.Forward(gan.SampleZ(rp.rng, 6))
			nn.ZeroGrads(rp.d.Params())
			rp.lastD = gan.DiscriminatorStep(rp.d, real, fakes)
		})
		t.call("optim.adam_ms", root, func() {
			rp.optD.Step()
			nn.ZeroGrads(rp.d.Params())
		})
	}
	window := rp.window()

	var patch4 *tensor.Tensor
	t.call("gan.g_ms", root, func() { patch4 = rp.g.Forward(rp.zS) })

	var (
		decaled           *tensor.Tensor
		warps             []*imaging.Warp
		comps             []*imaging.CompositeInk
		printBwd, maskBwd func(*tensor.Tensor) *tensor.Tensor
		err               error
	)
	t.call("imaging.decal_composite_ms", root, func() {
		model := physical.DefaultPrintModel()
		span := model.GamutHigh - model.GamutLow
		printed := patch4.Reshape(1, r, r).Map(func(v float64) float64 { return model.GamutLow + span*v })
		printBwd = func(d *tensor.Tensor) *tensor.Tensor { return d.Map(func(v float64) float64 { return span * v }) }
		var masked *tensor.Tensor
		masked, maskBwd = imaging.ApplyShapeMask(printed, rp.mask)
		decaled = sc.Ground.Tex
		for _, pl := range attack.Placements(cfg, sc.TargetGX, sc.TargetGY) {
			quad := sc.Ground.DecalQuad(pl.GX, pl.GY, pl.SizeM, pl.Rot)
			f := float64(r - 1)
			h, herr := imaging.QuadToQuad(quad, [4]imaging.Point{{X: 0, Y: 0}, {X: f, Y: 0}, {X: f, Y: f}, {X: 0, Y: f}})
			if herr != nil {
				err = herr
				return
			}
			wp := imaging.NewWarp(h, sc.Ground.Rows(), sc.Ground.Cols(), 1)
			comp := imaging.NewCompositeInk([3]float64{cfg.Ink, cfg.Ink, cfg.Ink * 1.02})
			decaled = comp.Forward(decaled, wp.Forward(masked))
			warps = append(warps, wp)
			comps = append(comps, comp)
		}
	})
	if err != nil {
		return fmt.Errorf("replay: decal warp: %w", err)
	}

	w := len(window)
	imgH, imgW := window[0].Cam.ImgH, window[0].Cam.ImgW
	sz := 3 * imgH * imgW
	batch := tensor.New(w, 3, imgH, imgW)
	graphs := make([]frameGraph, w)
	targets := make([]yolo.AttackTarget, w)
	tmp := &scene.Ground{Tex: decaled, WidthM: sc.Ground.WidthM, LengthM: sc.Ground.LengthM, MPP: sc.Ground.MPP}
	for i, st := range window {
		var applied *eot.Applied
		t.call("eot.fwd_ms", root, func() { applied = rp.sampler.Sample(rp.rng, imgH, imgW) })
		var img *tensor.Tensor
		fg := frameGraph{blur: st.BlurLen, applied: applied}
		t.call("scene.train_render_ms", root, func() {
			fg.camWarp, err = st.Cam.TexWarp(tmp)
			if err != nil {
				return
			}
			img = fg.camWarp.Forward(decaled)
			fg.sky = st.Cam.ApplySky(img)
			if st.BlurLen > 1 {
				img = imaging.BoxBlurVertical(img, st.BlurLen)
			}
		})
		if err != nil {
			return fmt.Errorf("replay: train frame: %w", err)
		}
		t.call("eot.fwd_ms", root, func() { img = applied.Forward(img) })
		copy(batch.Data()[i*sz:(i+1)*sz], img.Data())
		graphs[i] = fg
		box, ok := st.Cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1)
		if ok {
			cx, cy, bw, bh, valid := applied.MapBox(box.CX, box.CY, box.W, box.H)
			box, ok = scene.Box{CX: cx, CY: cy, W: bw, H: bh}, valid
		}
		if !ok {
			box = scene.Box{CX: -100, CY: -100, W: 1, H: 1}
		}
		targets[i] = yolo.AttackTarget{Box: box, Class: cfg.TargetClass}
	}

	det := env.det
	det.SetTraining(false)
	var heads, dHeads yolo.Heads
	t.call("yolo.fwd_ms.n3", root, func() { heads = det.Forward(batch) })
	var loss float64
	t.call("yolo.attack_loss_ms", root, func() {
		loss, dHeads = det.AttackLoss(heads, targets, yolo.DefaultAttackLossWeights())
		for i := range targets {
			det.TargetClassProb(heads, targets[i], i)
		}
	})
	var dBatch *tensor.Tensor
	t.call("yolo.bwd_ms.n3", root, func() {
		dBatch = det.Backward(dHeads)
		nn.ZeroGrads(det.Params())
	})
	rp.losses = append(rp.losses, loss)

	var dTex *tensor.Tensor
	for i, fg := range graphs {
		dImg := tensor.FromSlice(append([]float64(nil), dBatch.Data()[i*sz:(i+1)*sz]...), 3, imgH, imgW)
		var d *tensor.Tensor
		t.call("eot.bwd_ms", root, func() { d = fg.applied.Backward(dImg) })
		t.call("scene.train_render_bwd_ms", root, func() {
			if fg.blur > 1 {
				d = imaging.BoxBlurVertical(d, fg.blur)
			}
			c, n := d.Dim(0), d.Dim(1)*d.Dim(2)
			for p, sky := range fg.sky {
				if sky {
					for ch := 0; ch < c; ch++ {
						d.Data()[ch*n+p] = 0
					}
				}
			}
			d = fg.camWarp.Backward(d)
		})
		if dTex == nil {
			dTex = d
		} else {
			dTex.AddInPlace(d)
		}
	}

	var dRaw *tensor.Tensor
	t.call("imaging.decal_composite_bwd_ms", root, func() {
		var dLayer *tensor.Tensor
		for i := len(comps) - 1; i >= 0; i-- {
			dBg, dGray := comps[i].Backward(dTex)
			dp := warps[i].Backward(dGray)
			if dLayer == nil {
				dLayer = dp
			} else {
				dLayer.AddInPlace(dp)
			}
			dTex = dBg
		}
		dRaw = printBwd(maskBwd(dLayer)).Scale(cfg.Alpha)
	})

	t.call("gan.g_ms", root, func() {
		lossG, dFake := gan.GeneratorAdversarialGrad(rp.d, patch4)
		rp.losses = append(rp.losses, lossG)
		nn.ZeroGrads(rp.d.Params())
		dPatch := dFake.Reshape(1, r, r).Clone().AddInPlace(dRaw)
		nn.ZeroGrads(rp.g.Params())
		rp.g.Backward(dPatch.Reshape(1, 1, r, r))
	})
	t.call("optim.adam_ms", root, func() {
		optim.ClipGradNorm(rp.g.Params(), 5)
		rp.optG.Step()
	})

	if (it >= cfg.Iters/4 && it%10 == 0) || final {
		t.call("attack.verify_ms", root, func() { err = rp.verify() })
	}
	return err
}

// verify scores the current generator output as Train's snapshot does:
// digital verification, then the printed spot-check.
func (rp *replay) verify() error {
	r := gan.PatchRes
	rp.g.SetTraining(false)
	cand := &attack.Patch{Gray: rp.g.Forward(rp.zS).Reshape(1, r, r).Clone(), Mask: rp.mask.Clone(), Cfg: rp.cfg}
	rp.g.SetTraining(true)
	env := rp.env
	if _, err := attack.VerifyDigital(env.det, env.cam, env.sc, cand, rp.verifyRng); err != nil {
		return fmt.Errorf("replay: verify digital: %w", err)
	}
	if _, err := attack.VerifyChannel(env.det, env.cam, env.sc, cand, physical.RealWorld(), rp.verifyRng); err != nil {
		return fmt.Errorf("replay: verify printed: %w", err)
	}
	return nil
}
