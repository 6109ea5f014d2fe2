package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bgpvr/internal/compose"
	"bgpvr/internal/core"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/machine"
	"bgpvr/internal/obs"
	"bgpvr/internal/render"
	"bgpvr/internal/serve"
)

// The serve-mix request classes. Real requests render a 64^3 volume
// into the service's default 128^2 image on 4 ranks; model requests
// time a paper-scale frame on 4,096 modeled Blue Gene/P cores. One
// request in modelOneIn is a model request, and one real request in
// imageOneIn asks for the image.
const (
	realN, realProcs             = 64, 4
	modelN, modelImg, modelProcs = 1120, 1600, 4096
	modelOneIn, imageOneIn       = 4, 8
	azimuthPool, azimuthStepDeg  = 4, 30
	mixSalt                      = 0x9e3779b97f4a7c15
)

// mixReq is one request of the serve-mix sequence.
type mixReq struct {
	model   bool
	azimuth float64 // one of a pool of four, so the field cache holds every scene
	image   bool    // real requests only: return the rendered frame
}

// mixAt returns request i of the sequence the seed defines. Requests
// are drawn independently, so the closed loop's clients can take them
// in any interleaving and the set sent is still the seed's prefix.
func mixAt(seed int64, i int) mixReq {
	h := splitmix(uint64(seed)*mixSalt + uint64(i))
	r := mixReq{azimuth: float64(h%azimuthPool) * azimuthStepDeg}
	h /= azimuthPool
	r.model = h%modelOneIn == 0
	h /= modelOneIn
	r.image = !r.model && h%imageOneIn == 0
	return r
}

// splitmix is the SplitMix64 finalizer, a cheap well-mixed hash.
func splitmix(x uint64) uint64 {
	x += mixSalt
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (r mixReq) body() []byte {
	req := serve.RenderRequest{Mode: "real", N: realN, Procs: realProcs, AzimuthDeg: r.azimuth, IncludeImage: r.image}
	if r.model {
		req = serve.RenderRequest{Mode: "model", N: modelN, Img: modelImg, Procs: modelProcs, AzimuthDeg: r.azimuth}
	}
	b, _ := json.Marshal(req) // a plain struct always marshals
	return b
}

// modelConfig is the direct core.RunModel call a model request must
// agree with.
func modelConfig(azimuth float64) core.ModelConfig {
	s := core.DefaultScene(modelN, modelImg)
	s.AzimuthDeg = azimuth
	return core.ModelConfig{Scene: s, Procs: modelProcs, Format: core.FormatGenerate}
}

// serveState is a running in-process render service plus the
// references its replies are checked against.
type serveState struct {
	seed    int64
	srv     *serve.Server
	client  *http.Client
	base    string
	clients int
	next    atomic.Int64 // index of the next request in the sequence

	refPPM     map[float64]string // base64 PPM of each azimuth's frame
	refSamples map[float64]int64
	refModel   map[float64]core.StageTimes
}

// setupServeMix renders every scene once directly (checked against its
// serial render), computes the model references, starts the service on loopback with a private
// metrics registry, and sends the untimed first request of each class
// and azimuth, which fills the field cache.
func setupServeMix(seed int64) (state, error) {
	st := &serveState{seed: seed, clients: runtime.NumCPU(),
		refPPM: map[float64]string{}, refSamples: map[float64]int64{}, refModel: map[float64]core.StageTimes{}}
	for k := 0; k < azimuthPool; k++ {
		az := float64(k) * azimuthStepDeg
		// The service renders with its default config: the scene at
		// the service's default image size, every core in each rank's
		// ray-casting pool.
		s := core.DefaultScene(realN, 2*realN)
		s.AzimuthDeg = az
		s.RenderWorkers = st.clients
		rr, err := core.RunReal(core.RealConfig{Scene: s, Procs: realProcs})
		if err != nil {
			return nil, err
		}
		if err := checkSerial(s, rr); err != nil {
			return nil, fmt.Errorf("azimuth %g: %w", az, err)
		}
		var buf bytes.Buffer
		if err := rr.Image.EncodePPM(&buf, 0); err != nil {
			return nil, err
		}
		st.refPPM[az] = base64.StdEncoding.EncodeToString(buf.Bytes())
		st.refSamples[az] = rr.Samples
		mr, err := core.RunModel(modelConfig(az))
		if err != nil {
			return nil, err
		}
		st.refModel[az] = mr.Times
	}

	st.srv = serve.New(serve.Config{Registry: obs.NewRegistry(), Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := st.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	st.base = "http://" + st.srv.Addr()
	st.client = &http.Client{Timeout: time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: st.clients}}
	for k := 0; k < azimuthPool; k++ {
		az := float64(k) * azimuthStepDeg
		for _, r := range []mixReq{{azimuth: az}, {azimuth: az, image: true}, {model: true, azimuth: az}} {
			if _, err := st.send(r); err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up request %+v: %w", r, err)
			}
		}
	}
	return st, nil
}

func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // the run is over; a slow drain changes nothing measured
	st.client.CloseIdleConnections()
}

// reply is the part of a /render reply the benchmark checks.
type reply struct {
	Times    core.StageTimes `json:"times"`
	Samples  int64           `json:"samples"`
	ImagePPM string          `json:"image_ppm"`
}

// sample is one completed request.
type sample struct {
	model    bool
	start    time.Time
	dur      time.Duration // client-observed latency
	serverMs float64       // the frame's own times.total (real requests)
	err      error         // the request failed or its reply failed a check
}

// send posts one request, times it until the whole reply is read, and
// checks the reply against the references.
func (st *serveState) send(r mixReq) (sample, error) {
	s := sample{model: r.model, start: time.Now()}
	resp, err := st.client.Post(st.base+"/render", "application/json", bytes.NewReader(r.body()))
	if err != nil {
		return s, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.dur = time.Since(s.start)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("status %d", resp.StatusCode)
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return s, fmt.Errorf("decode reply: %w", err)
	}
	if r.model {
		if rep.Times != st.refModel[r.azimuth] {
			return s, fmt.Errorf("model times %+v differ from core.RunModel's %+v", rep.Times, st.refModel[r.azimuth])
		}
	} else {
		if rep.Samples != st.refSamples[r.azimuth] {
			return s, fmt.Errorf("real frame took %d samples, the reference %d", rep.Samples, st.refSamples[r.azimuth])
		}
		if r.image && rep.ImagePPM != st.refPPM[r.azimuth] {
			return s, fmt.Errorf("image at azimuth %g differs from the reference frame", r.azimuth)
		}
		s.serverMs = rep.Times.Total * 1e3
	}
	return s, nil
}

func (st *serveState) status() (serve.StatusReply, error) {
	var sr serve.StatusReply
	resp, err := st.client.Get(st.base + "/status")
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("status endpoint answered %d", resp.StatusCode)
	}
	return sr, json.NewDecoder(resp.Body).Decode(&sr)
}

// run drives a closed loop: each of nproc clients sends its next
// request only after reading the previous reply.
func (st *serveState) run(deadline time.Time, rec *recorder, res *result) error {
	before, err := st.status()
	if err != nil {
		return err
	}
	per := make([][]sample, st.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < st.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(st.next.Add(1) - 1)
				end := rec.begin("serve", i, c)
				s, err := st.send(mixAt(st.seed, i))
				end()
				if err != nil {
					s.err = fmt.Errorf("request %d: %w", i, err)
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	var real, model, overhead []float64
	sent, failed := 0, 0
	for _, ss := range per {
		for _, s := range ss {
			res.attempted++
			sent++
			if s.err != nil {
				res.fail("%v", s.err)
				failed++
				continue
			}
			w.add(s.start, s.dur)
			if ms := msOf(s.dur); s.model {
				model = append(model, ms)
			} else {
				real = append(real, ms)
				overhead = append(overhead, ms-s.serverMs)
			}
		}
	}
	if rec == nil {
		res.endWindow(w)
		// The share of failed requests, for the detail line; it is 0
		// on correct code, so it is not an end-to-end metric.
		res.set("serve_fail_ratio", float64(failed)/float64(max(sent, 1)))
		return nil
	}
	after, err := st.status()
	if err != nil {
		return err
	}
	if len(w.ops) > 0 {
		res.set("trace.overhead_ratio", median(w.ms())/res.values["p50_ms"])
	}
	res.setPct("serve.real_p50_ms", real, 50)
	res.setPct("serve.overhead_ms", overhead, 50)
	res.setPct("serve.model_p50_ms", model, 50)
	hits := after.Cache.FieldHits - before.Cache.FieldHits
	if lookups := hits + after.Cache.FieldMisses - before.Cache.FieldMisses; lookups > 0 {
		res.set("serve.field_cache_hit_ratio", float64(hits)/float64(lookups))
	}
	res.set("serve.rejected", float64(after.Rejected429-before.Rejected429))
	res.set("serve.deadline_expired", float64(after.Deadline503-before.Deadline503))
	return modelProbe(rec, res)
}

// modelProbe times the analytic model directly: core.RunModel at the
// serve-mix model configuration and the torus phase of the 32K-core
// direct-send schedule of the 1120^3 paper scene. Every repeat must
// reproduce the first run's virtual time exactly.
func modelProbe(rec *recorder, res *result) error {
	const reps, torusProcs = 3, 32768
	var first core.StageTimes
	for i := 0; i < reps; i++ {
		end := rec.begin("model", i, 0)
		mr, err := core.RunModel(modelConfig(0))
		end()
		res.attempted++
		if err != nil {
			return err
		}
		if i == 0 {
			first = mr.Times
		} else if mr.Times != first {
			res.fail("core.RunModel times %+v differ from the first run's %+v", mr.Times, first)
		}
	}
	res.setLayer(rec, "model.run_ms", "model")

	scene, err := core.PaperScene(modelN)
	if err != nil {
		return err
	}
	d := grid.NewDecomp(scene.Dims, torusProcs)
	cam := scene.Camera()
	rects := make([]img.Rect, torusProcs)
	for r := range rects {
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
	}
	msgs := compose.DirectSendSchedule(rects, scene.ImageW, scene.ImageH,
		machine.ImprovedCompositors(torusProcs), compose.PixelBytes)
	mach := machine.NewBGP()
	var phase float64
	for i := 0; i < reps; i++ {
		end := rec.begin("torus", i, 0)
		ph := mach.PhaseOnTorus(torusProcs, msgs, true)
		end()
		res.attempted++
		if i == 0 {
			phase = ph.Time
		} else if ph.Time != phase {
			res.fail("torus phase time %v differs from the first run's %v", ph.Time, phase)
		}
	}
	res.setLayer(rec, "torus.phase_ms", "torus")
	return nil
}
