package attack

import (
	"math"
	"math/rand"
	"testing"

	"roadtrojan/internal/eot"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

func testScene() Scene {
	g := scene.NewSimRoom(8, 30, 0.05)
	return NewArrowScene(g, 0, 15, 1.8)
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{name: "default", mutate: func(c *Config) {}, ok: true},
		{name: "zero N", mutate: func(c *Config) { c.N = 0 }, ok: false},
		{name: "huge N", mutate: func(c *Config) { c.N = 50 }, ok: false},
		{name: "tiny k", mutate: func(c *Config) { c.K = 2 }, ok: false},
		{name: "no iters", mutate: func(c *Config) { c.Iters = 0 }, ok: false},
		{name: "negative alpha", mutate: func(c *Config) { c.Alpha = -1 }, ok: false},
		{name: "zero window", mutate: func(c *Config) { c.WindowFrames = 0 }, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestSizeMFollowsK(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 60
	if math.Abs(cfg.SizeM()-60*PrintScaleM) > 1e-9 {
		t.Fatalf("k=60 size = %v m", cfg.SizeM())
	}
	cfg.K = 20
	if math.Abs(cfg.SizeM()-20*PrintScaleM) > 1e-9 {
		t.Fatalf("k=20 size = %v m", cfg.SizeM())
	}
	if cfg.SizeM() >= DefaultConfig().SizeM() {
		t.Fatal("smaller k must give smaller decals")
	}
}

func TestPlacementsRingGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 6
	pls := Placements(cfg, 1, 15)
	if len(pls) != 6 {
		t.Fatalf("placements = %d", len(pls))
	}
	// All decals stay within ~2 m of the target and none coincide.
	for i, p := range pls {
		d := math.Hypot(p.GX-1, p.GY-15)
		if d < 0.4 || d > 2.5 {
			t.Fatalf("decal %d at distance %v", i, d)
		}
		for j := i + 1; j < len(pls); j++ {
			if math.Hypot(p.GX-pls[j].GX, p.GY-pls[j].GY) < 0.05 {
				t.Fatalf("decals %d and %d coincide", i, j)
			}
		}
		if p.SizeM != cfg.SizeM() {
			t.Fatalf("decal %d size %v", i, p.SizeM)
		}
	}
	// Rotations differ (the paper rotates each AP differently).
	if pls[0].Rot == pls[1].Rot {
		t.Fatal("rotations must differ")
	}
}

func TestKForEqualTotalArea(t *testing.T) {
	// Table III: n·k² stays (approximately) constant, referenced to N=4, k=60.
	base := 4 * 60 * 60
	for _, n := range []int{2, 4, 6, 8} {
		k := KForEqualTotalArea(60, 4, n)
		total := n * k * k
		if math.Abs(float64(total-base))/float64(base) > 0.05 {
			t.Fatalf("N=%d k=%d: total area %d deviates from %d", n, k, total, base)
		}
	}
	if KForEqualTotalArea(60, 4, 4) != 60 {
		t.Fatal("reference N must keep k")
	}
}

func TestApplyGrayDecalsDarkensGround(t *testing.T) {
	sc := testScene()
	cfg := DefaultConfig()
	layer := tensor.New(1, 32, 32) // all-zero patch = fully opaque ink
	tex, gc, err := applyGrayDecals(sc.Ground, sc.Ground.Tex, layer, Placements(cfg, sc.TargetGX, sc.TargetGY), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if tex.Mean() >= sc.Ground.Tex.Mean() {
		t.Fatal("black decals must darken the ground")
	}
	if gc == nil || len(gc.warps) != cfg.N {
		t.Fatal("composite graph incomplete")
	}
	// A white (transparent) patch changes nothing.
	white := tensor.Ones(1, 32, 32)
	tex2, _, err := applyGrayDecals(sc.Ground, sc.Ground.Tex, white, Placements(cfg, sc.TargetGX, sc.TargetGY), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(tex2, sc.Ground.Tex); d > 1e-9 {
		t.Fatalf("white patch altered ground by %v", d)
	}
}

func TestGrayCompositeGradCheck(t *testing.T) {
	sc := testScene()
	cfg := DefaultConfig()
	cfg.N = 2
	rng := rand.New(rand.NewSource(1))
	layer := tensor.NewRandU(rng, 0.2, 0.8, 1, 16, 16)
	pls := Placements(cfg, sc.TargetGX, sc.TargetGY)

	tex, gc, err := applyGrayDecals(sc.Ground, sc.Ground.Tex, layer, pls, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	probe := tensor.NewRandN(rng, 1, tex.Shape()...)
	dLayer := gc.backward(probe)

	loss := func() float64 {
		tx, _, err := applyGrayDecals(sc.Ground, sc.Ground.Tex, layer, pls, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return tensor.Dot(tx, probe)
	}
	const eps = 1e-6
	for i := 0; i < layer.Len(); i += 29 {
		orig := layer.Data()[i]
		layer.Data()[i] = orig + eps
		lp := loss()
		layer.Data()[i] = orig - eps
		lm := loss()
		layer.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dLayer.Data()[i]) > 1e-4 {
			t.Fatalf("gray composite grad[%d]: analytic %v numeric %v", i, dLayer.Data()[i], num)
		}
	}
}

func TestRGBCompositeGradCheck(t *testing.T) {
	sc := testScene()
	cfg := DefaultConfig()
	cfg.N = 2
	rng := rand.New(rand.NewSource(2))
	layer := tensor.NewRandU(rng, 0.2, 0.8, 3, 12, 12)
	pls := Placements(cfg, sc.TargetGX, sc.TargetGY)

	tex, rc, err := applyRGBDecals(sc.Ground, sc.Ground.Tex, layer, pls)
	if err != nil {
		t.Fatal(err)
	}
	probe := tensor.NewRandN(rng, 1, tex.Shape()...)
	dLayer := rc.backward(probe)
	loss := func() float64 {
		tx, _, err := applyRGBDecals(sc.Ground, sc.Ground.Tex, layer, pls)
		if err != nil {
			t.Fatal(err)
		}
		return tensor.Dot(tx, probe)
	}
	const eps = 1e-6
	for i := 0; i < layer.Len(); i += 43 {
		orig := layer.Data()[i]
		layer.Data()[i] = orig + eps
		lp := loss()
		layer.Data()[i] = orig - eps
		lm := loss()
		layer.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dLayer.Data()[i]) > 1e-4 {
			t.Fatalf("rgb composite grad[%d]: analytic %v numeric %v", i, dLayer.Data()[i], num)
		}
	}
}

func TestFrameGraphGradCheck(t *testing.T) {
	sc := testScene()
	rng := rand.New(rand.NewSource(3))
	cam := scene.DefaultCamera()
	cam.Y = 10
	step := scene.TrajectoryStep{Cam: cam, BlurLen: 3}
	sampler := eot.NewSampler(eot.NewSet(3, 4)) // photometric-only: deterministic graph
	applied := sampler.Sample(rng, cam.ImgH, cam.ImgW)

	tex := sc.Ground.Tex.Clone()
	img, fg, err := renderTrainFrame(sc.Ground, tex, step, applied)
	if err != nil {
		t.Fatal(err)
	}
	probe := tensor.NewRandN(rng, 1, img.Shape()...)
	if _, _, err := renderTrainFrame(sc.Ground, tex, step, applied); err != nil {
		t.Fatal(err)
	}
	dTex := fg.backward(probe.Clone())
	if !dTex.SameShape(tex) {
		t.Fatalf("dTex shape %v", dTex.Shape())
	}

	loss := func() float64 {
		im, _, err := renderTrainFrame(sc.Ground, tex, step, applied)
		if err != nil {
			t.Fatal(err)
		}
		return tensor.Dot(im, probe)
	}
	// Probe a few texels near the target (visible region).
	tx, ty := sc.Ground.TexelOf(sc.TargetGX, sc.TargetGY)
	cols := sc.Ground.Cols()
	const eps = 1e-5
	for k := 0; k < 8; k++ {
		i := (int(ty)+k)*cols + int(tx) + k
		orig := tex.Data()[i]
		tex.Data()[i] = orig + eps
		lp := loss()
		tex.Data()[i] = orig - eps
		lm := loss()
		tex.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dTex.Data()[i]) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("frame grad at texel %d: analytic %v numeric %v", i, dTex.Data()[i], num)
		}
	}
}

func TestBuildPoolsCoverage(t *testing.T) {
	sc := testScene()
	rng := rand.New(rand.NewSource(4))
	pools := buildPools(scene.DefaultCamera(), sc, rng)
	if len(pools.dynamic) < 4 {
		t.Fatalf("dynamic trajectories = %d", len(pools.dynamic))
	}
	if len(pools.static) < 20 {
		t.Fatalf("static frames = %d", len(pools.static))
	}
	// Consecutive windows come from one trajectory in order.
	w := pools.sampleWindow(rng, true, 3)
	if len(w) != 3 {
		t.Fatalf("window = %d", len(w))
	}
	if !(w[1].Cam.Y >= w[0].Cam.Y && w[2].Cam.Y >= w[1].Cam.Y) {
		t.Fatal("consecutive window not ordered along the approach")
	}
	// Static windows are stationary frames.
	ws := pools.sampleWindow(rng, false, 3)
	for _, st := range ws {
		if st.BlurLen > 1 {
			t.Fatal("static pool contains moving frames")
		}
	}
}

func TestTrainSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("attack training smoke test skipped in -short mode")
	}
	sc := testScene()
	rng := rand.New(rand.NewSource(5))
	det := yolo.New(rng, yolo.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Iters = 3
	cfg.N = 2
	p, stats, err := Train(det, scene.DefaultCamera(), sc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Gray == nil || p.Mask == nil || p.IsColored() {
		t.Fatal("ours must be monochrome")
	}
	if p.Gray.Dim(1) != 32 {
		t.Fatalf("patch shape %v", p.Gray.Shape())
	}
	if len(stats.AttackLoss) != 3 || len(stats.GANLossD) != 3 {
		t.Fatalf("stats lengths %d/%d", len(stats.AttackLoss), len(stats.GANLossD))
	}
	mg := p.MaskedGray()
	if mg.Min() < 0 || mg.Max() > 1 {
		t.Fatal("masked patch escapes [0,1]")
	}
	// Outside the silhouette the layer is white.
	if mg.At(0, 0, 0) != 1 {
		t.Fatalf("corner = %v, want 1 (transparent)", mg.At(0, 0, 0))
	}
}

// TestTrainLeavesVictimUntouched: every trainer freezes the detector for
// the run and restores it on return — no gradient is accumulated into it
// and no parameter is left frozen.
func TestTrainLeavesVictimUntouched(t *testing.T) {
	if testing.Short() {
		t.Skip("attack training test skipped in -short mode")
	}
	sc := testScene()
	det := yolo.New(rand.New(rand.NewSource(5)), yolo.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Iters = 2
	cfg.N = 2
	for name, train := range map[string]func(*yolo.Model, scene.Camera, Scene, Config, *obs.Trace) (*Patch, *TrainStats, error){
		"ours": Train, "direct": TrainDirect, "baseline": TrainBaseline,
	} {
		if _, _, err := train(det, scene.DefaultCamera(), sc, cfg, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range det.Params() {
			if p.Frozen {
				t.Fatalf("%s: %s left frozen", name, p.Name)
			}
			for _, g := range p.Grad.Data() {
				if g != 0 {
					t.Fatalf("%s: %s gradient %v, want 0", name, p.Name, g)
				}
			}
		}
	}
}

func TestTrainBaselineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline training smoke test skipped in -short mode")
	}
	sc := testScene()
	rng := rand.New(rand.NewSource(6))
	det := yolo.New(rng, yolo.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Iters = 3
	cfg.N = 2
	p, stats, err := TrainBaseline(det, scene.DefaultCamera(), sc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsColored() || p.RGB.Dim(0) != 3 {
		t.Fatal("baseline must be colored")
	}
	if p.RGB.Min() < 0 || p.RGB.Max() > 1 {
		t.Fatal("baseline patch escapes [0,1]")
	}
	if len(stats.AttackLoss) != 3 {
		t.Fatalf("stats length %d", len(stats.AttackLoss))
	}
}

func TestTrainRejectsInvalidConfig(t *testing.T) {
	sc := testScene()
	det := yolo.New(rand.New(rand.NewSource(7)), yolo.DefaultConfig())
	cfg := DefaultConfig()
	cfg.N = 0
	if _, _, err := Train(det, scene.DefaultCamera(), sc, cfg, nil); err == nil {
		t.Fatal("expected validation error")
	}
	if _, _, err := TrainBaseline(det, scene.DefaultCamera(), sc, cfg, nil); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDeployDigitalVsPhysical(t *testing.T) {
	sc := testScene()
	rng := rand.New(rand.NewSource(8))
	cfg := DefaultConfig()
	cfg.N = 3
	p := &Patch{
		Gray: tensor.NewRandU(rng, 0, 0.5, 1, 32, 32),
		Mask: shapes.Mask(shapes.Star, 32, 0.92, 0),
		Cfg:  cfg,
	}
	gd, err := Deploy(sc, p, physical.Digital(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(gd.Tex, sc.Ground.Tex) == 0 {
		t.Fatal("digital deploy did not change ground")
	}
	// Original ground untouched.
	before := sc.Ground.Tex.Clone()
	gp, err := Deploy(sc, p, physical.RealWorld(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(before, sc.Ground.Tex) != 0 {
		t.Fatal("Deploy mutated the scene ground")
	}
	// Physical deploy differs from digital (print error).
	if tensor.MaxAbsDiff(gd.Tex, gp.Tex) == 0 {
		t.Fatal("physical channel had no effect")
	}
}

func TestDeployColoredPatch(t *testing.T) {
	sc := testScene()
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultConfig()
	cfg.N = 2
	p := &Patch{RGB: tensor.NewRandU(rng, 0, 1, 3, 32, 32), Cfg: cfg}
	g, err := Deploy(sc, p, physical.RealWorld(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(g.Tex, sc.Ground.Tex) == 0 {
		t.Fatal("colored deploy did not change ground")
	}
}

func TestRenderPrintSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, k := range []int{20, 40, 60, 80} {
		cfg := DefaultConfig()
		cfg.K = k
		p := &Patch{
			Gray: tensor.NewRandU(rng, 0, 1, 1, 32, 32),
			Mask: shapes.Mask(shapes.Star, 32, 0.9, 0),
			Cfg:  cfg,
		}
		pr := p.RenderPrint()
		if pr.Dim(1) != k || pr.Dim(2) != k {
			t.Fatalf("print size %v for k=%d", pr.Shape(), k)
		}
	}
}

func TestTrainDeterministicWithSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism test skipped in -short mode")
	}
	sc1 := testScene()
	sc2 := testScene()
	det := yolo.New(rand.New(rand.NewSource(11)), yolo.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Iters = 2
	cfg.N = 2
	p1, _, err := Train(det, scene.DefaultCamera(), sc1, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Train(det, scene.DefaultCamera(), sc2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(p1.Gray, p2.Gray) != 0 {
		t.Fatal("same seed must reproduce the same patch")
	}
}

func TestPatchSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(12))
	cfg := DefaultConfig()
	cfg.N = 6
	cfg.K = 40
	cfg.Consecutive = false
	p := &Patch{
		Gray: tensor.NewRandU(rng, 0, 1, 1, 32, 32),
		Mask: shapes.Mask(shapes.Triangle, 32, 0.9, 0),
		Cfg:  cfg,
	}
	path := dir + "/p.rtwt"
	if err := SavePatch(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPatch(path)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(got.Gray, p.Gray) != 0 || tensor.MaxAbsDiff(got.Mask, p.Mask) != 0 {
		t.Fatal("tensors drifted")
	}
	if got.Cfg.N != 6 || got.Cfg.K != 40 || got.Cfg.Consecutive || got.Cfg.Shape != shapes.Star {
		t.Fatalf("config drifted: %+v", got.Cfg)
	}
	if got.Cfg.Tricks.String() != cfg.Tricks.String() {
		t.Fatalf("tricks drifted: %v vs %v", got.Cfg.Tricks, cfg.Tricks)
	}

	// Colored patch round trip.
	pc := &Patch{RGB: tensor.NewRandU(rng, 0, 1, 3, 32, 32), Cfg: DefaultConfig()}
	if err := SavePatch(path, pc); err != nil {
		t.Fatal(err)
	}
	gc, err := LoadPatch(path)
	if err != nil {
		t.Fatal(err)
	}
	if !gc.IsColored() || tensor.MaxAbsDiff(gc.RGB, pc.RGB) != 0 {
		t.Fatal("colored round trip failed")
	}
}

func TestLoadPatchErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadPatch(dir + "/missing.rtwt"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestVerifyDigitalBounds(t *testing.T) {
	sc := testScene()
	rng := rand.New(rand.NewSource(13))
	det := yolo.New(rng, yolo.DefaultConfig())
	p := &Patch{
		Gray: tensor.NewRandU(rng, 0, 0.5, 1, 32, 32),
		Mask: shapes.Mask(shapes.Star, 32, 0.9, 0),
		Cfg:  DefaultConfig(),
	}
	frac, err := VerifyDigital(det, scene.DefaultCamera(), sc, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0 || frac > 1 {
		t.Fatalf("fraction = %v", frac)
	}
}

func TestVerifyDigitalInvisibleTarget(t *testing.T) {
	g := scene.NewSimRoom(8, 30, 0.05)
	sc := NewArrowScene(g, 8, 15, 0.5) // far off to the side: out of frame
	rng := rand.New(rand.NewSource(14))
	det := yolo.New(rng, yolo.DefaultConfig())
	p := &Patch{Gray: tensor.New(1, 32, 32), Mask: shapes.Mask(shapes.Star, 32, 0.9, 0), Cfg: DefaultConfig()}
	if _, err := VerifyDigital(det, scene.DefaultCamera(), sc, p, rng); err == nil {
		t.Fatal("expected error for invisible target")
	}
}
