package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/metrics"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/yolo"
)

// evalSetups is how many times the sweep environment is built.
const evalSetups = 9

// evalSweepNominalS is what one sweep of the table takes on the 2-core
// machine the benchmark was tuned on, in seconds.
const evalSweepNominalS = 6.5

type evalEnv struct {
	det   *yolo.Model
	cam   scene.Camera
	sc    attack.Scene
	patch *attack.Patch
}

// evalRuns is the paper's repetition count per Table I cell.
const evalRuns = 3

// job is run number run of the paper's Table I cell for one challenge:
// physical mode and the sweep's patch. eval.RunJob seeds run r of a job
// with Cond.Seed + r·7919, so a one-run job with that seed scores exactly
// the video the three-run job would; the sweep runs each video as its own
// job to time it on its own.
func (e *evalEnv) job(challenge string, seed int64, run int) eval.Job {
	cond := eval.DefaultCondition()
	cond.Runs = 1
	cond.Seed = seed + int64(run)*7919
	return eval.Job{Det: e.det, Cam: e.cam, Scene: e.sc, Patch: e.patch,
		Target: e.patch.Cfg.TargetClass, Ch: scene.Challenges(challenge)[0], Cond: cond}
}

func evalSeed(seed int64) int64 { return 100 + seed }

// sweepJobs lists the sweep's videos in Table I order.
func (e *evalEnv) sweepJobs(seed int64) []eval.Job {
	var jobs []eval.Job
	for _, name := range scene.AllChallengeNames {
		for run := 0; run < evalRuns; run++ {
			jobs = append(jobs, e.job(name, evalSeed(seed), run))
		}
	}
	return jobs
}

// runEvalSweep scores the whole challenge table repeatedly. Each video's
// eval.RunJob is one operation and one latency sample; every sweep after
// the first must reproduce the first one's details exactly.
func runEvalSweep(o options, r *report) error {
	env, err := setUp(r, evalSetups, func() (*evalEnv, error) {
		return &evalEnv{det: newDetector(), cam: scene.DefaultCamera(), sc: roadScene(), patch: fixedPatch(o.seed)}, nil
	}, nil)
	if err != nil {
		return err
	}
	if o.trace {
		return traceEval(o, r, env)
	}
	jobs := env.sweepJobs(o.seed)
	var first []eval.Detail
	framesPerSweep := 0
	for sweep := 0; sweep < repetitions(o.seconds, evalSweepNominalS, 2); sweep++ {
		t0 := time.Now()
		for ji, j := range jobs {
			j0 := time.Now()
			d, err := eval.RunJob(j)
			r.samples = append(r.samples, ms(time.Since(j0)))
			r.attempted++
			if err == nil && sweep > 0 && !reflect.DeepEqual(d, first[ji]) {
				err = fmt.Errorf("%s video %d: sweep %d differs from sweep 0", j.Ch.Name, ji, sweep)
			}
			if err != nil {
				r.failed++
				r.notes["error"] = err.Error()
			}
			if sweep == 0 {
				first = append(first, d)
				framesPerSweep += videoFrames(d)
			}
			r.units += float64(videoFrames(d))
		}
		r.window += time.Since(t0)
	}
	r.notes["frames_per_sweep"] = framesPerSweep
	return nil
}

func videoFrames(d eval.Detail) int {
	n := 0
	for _, run := range d.Runs {
		n += len(run)
	}
	return n
}

// traceEval scores the sweep once through eval.RunJob for reference, then
// replays it through the functions RunJob calls, with a span around each
// call; eval.FrameResultsTraced's StageHook spans forward and decode. A
// replayed job must reproduce RunJob's details exactly.
func traceEval(o options, r *report, env *evalEnv) error {
	jobs := env.sweepJobs(o.seed)
	var ref []eval.Detail
	for _, j := range jobs {
		d, err := eval.RunJob(j)
		if err != nil {
			return err
		}
		ref = append(ref, d)
	}
	t := newTracer()
	frames, scored, dets := 0, 0, 0
	for sweep := 1; sweep < repetitions(o.seconds, evalSweepNominalS, 2); sweep++ {
		for ji, j := range jobs {
			d, captured, err := replayJob(t, j)
			r.attempted++
			if err == nil && !reflect.DeepEqual(d, ref[ji]) {
				err = fmt.Errorf("%s video %d: replay differs from eval.RunJob", j.Ch.Name, ji)
			}
			if err != nil {
				r.failed++
				r.notes["error"] = err.Error()
			}
			frames += videoFrames(d)
			if sweep == 1 {
				n, k := countDetections(env.det, captured)
				scored += n
				dets += k
			}
		}
	}
	b, err := reconcile(t.snapshot(), "eval.job")
	if err != nil {
		return err
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(frames) }
	r.layers["eval.traced_frame_ms"] = per(b.Whole)
	for name, d := range b.Layers {
		r.layers[name] = per(d)
	}
	r.layers["eval.unattributed_ms"] = per(b.Unattributed)
	if scored > 0 {
		r.layers["yolo.dets_per_frame"] = float64(dets) / float64(scored)
	}
	r.notes["traced_frames"] = frames
	return writeTrace(o, r, t)
}

// replayJob is eval.RunJob's run loop with each stage in a span: deploy,
// trajectory and video render, the capture channel (applied up front with
// the run's RNG in frame order, exactly as scoring would), then scoring
// through FrameResultsTraced. It returns the captured frames too, so their
// detections can be counted outside the spans.
func replayJob(t *tracer, j eval.Job) (eval.Detail, []scene.VideoFrame, error) {
	root := t.begin("eval.job", 0)
	defer t.end(root)
	hook := func(stage string) func() {
		id := t.begin("eval."+stage+"_ms", root)
		return func() { t.end(id) }
	}
	j.Det.SetTraining(false)
	d := eval.Detail{Runs: make([][]metrics.FrameResult, 0, j.Cond.Runs)}
	var scores []metrics.Score
	var all []scene.VideoFrame
	for run := 0; run < j.Cond.Runs; run++ {
		rng := rand.New(rand.NewSource(j.Cond.Seed + int64(run)*7919))
		var ground *scene.Ground
		var frames []scene.VideoFrame
		var err error
		t.call("attack.deploy_ms", root, func() { ground, err = attack.Deploy(j.Scene, j.Patch, j.Cond.Channel, rng) })
		if err != nil {
			return d, nil, fmt.Errorf("deploy: %w", err)
		}
		t.call("scene.render_video_ms", root, func() {
			steps := scene.BuildTrajectory(j.Cam, j.Ch, j.Scene.TargetGX, j.Scene.TargetGY, rng)
			frames, err = scene.RenderVideo(ground, steps, j.Scene.GX0, j.Scene.GY0, j.Scene.GX1, j.Scene.GY1)
		})
		if err != nil {
			return d, nil, fmt.Errorf("render: %w", err)
		}
		if j.Cond.Channel.Enabled {
			t.call("physical.capture_ms", root, func() {
				for i := range frames {
					frames[i].Image = j.Cond.Channel.Capture.Apply(rng, frames[i].Image)
				}
			})
		}
		results := eval.FrameResultsTraced(nil, hook, j.Det, frames, physical.Digital(), rng, j.Cond.MatchIoU)
		d.Runs = append(d.Runs, results)
		scores = append(scores, metrics.Evaluate(results, j.Target))
		all = append(all, frames...)
	}
	d.Score = metrics.Average(scores)
	return d, all, nil
}

// countDetections returns how many frames show the target and how many
// detections the decoder keeps on them: NMS cost grows with the latter.
func countDetections(det *yolo.Model, frames []scene.VideoFrame) (scored, dets int) {
	opts := yolo.DefaultDecode()
	for _, f := range frames {
		if !f.TargetOK {
			continue
		}
		img := f.Image
		heads := det.Forward(img.Reshape(1, 3, img.Dim(1), img.Dim(2)))
		scored++
		dets += len(det.DecodeSample(heads, 0, opts))
	}
	return scored, dets
}
