package main

import (
	"bufio"
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/gan"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/telemetry"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

const (
	// detectorSeed fixes the victim's weights: a fixed-seed yolo.New
	// detector needs no trained artefact and costs what a trained one does.
	detectorSeed = 1
	// roadSeed is the road texture the serving layer evaluates on.
	roadSeed = 7
)

// newDetector builds the fixed-seed victim detector.
func newDetector() *yolo.Model {
	return yolo.New(rand.New(rand.NewSource(detectorSeed)), yolo.DefaultConfig())
}

// roadScene builds the attacked location the serving layer uses: the
// seed-7 road with the target arrow 15 m ahead.
func roadScene() attack.Scene {
	g := scene.NewRoad(rand.New(rand.NewSource(roadSeed)), 8, 30, 0.05)
	return attack.NewArrowScene(g, 0, 15, 1.8)
}

// fixedPatch is an untrained decal at the default attack config whose
// gray layer is drawn from seed: real patch bytes without training cost.
func fixedPatch(seed int64) *attack.Patch {
	cfg := attack.DefaultConfig()
	r := gan.PatchRes
	rng := rand.New(rand.NewSource(seed))
	return &attack.Patch{
		Gray: tensor.NewRandU(rng, 0, 1, 1, r, r),
		Mask: shapes.Mask(cfg.Shape, r, cfg.ShapeScale(), 0),
		Cfg:  cfg,
	}
}

// setUp builds a workload's environment n times, timing each build into
// r.setup, and returns the last one; the others are released with drop.
// Repeating the set-up makes setup_s a median rather than one sample.
func setUp[T any](r *report, n int, build func() (T, error), drop func(T)) (T, error) {
	var env T
	for i := 0; i < n; i++ {
		if i > 0 && drop != nil {
			drop(env)
		}
		runtime.GC()
		start := time.Now()
		e, err := build()
		if err != nil {
			return env, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		env = e
	}
	return env, nil
}

// repetitions is how many fixed-size pieces of work fit in seconds, given
// what one piece nominally costs, and at least min. The count depends only
// on the arguments, never on how fast this run happens to go, so every run
// of a workload collects the same number of samples and its tail is always
// the same percentile.
func repetitions(seconds, nominal float64, min int) int {
	n := int(seconds / nominal)
	if n < min {
		return min
	}
	return n
}

// counterSum reads the current value of a metric family from a registry's
// text exposition, summed over its label sets.
func counterSum(reg *telemetry.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return 0
	}
	sum := 0.0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
