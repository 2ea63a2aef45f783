package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"ldmo/internal/core"
	"ldmo/internal/layout"
	"ldmo/internal/model"
	"ldmo/internal/serve"
)

// serve_cells: an in-process serve.Server behind a loopback HTTP listener,
// driven open loop by one process with two connections: one submits on a
// seeded Poisson schedule, the other polls job status. It is the only
// workload that runs admission, the fair queue, the sealed job store, dedupe
// and the pipelined scheduler with its prediction coalescer.
const (
	// serveFreshRate is the offered fresh load in jobs per second, about a
	// seventh of the 4.0 jobs/s at which a burst of fresh jobs drains on a
	// 2-CPU Xeon. A job that runs alone takes 0.35-0.5 s, and one that
	// arrives while another runs waits for that whole wave, so latency is
	// bimodal and the median must sit well inside one mode: at 0.8 jobs/s,
	// 7 of the schedule's 16 fresh jobs queued, the median sat on the mode
	// boundary, and its spread over ten seeds reached 0.40 when the host
	// slowed; at 0.6 jobs/s 3 of 12 queue. Cache hits come on top, a
	// quarter of all requests.
	serveFreshRate = 0.6
	// serveWarmJobs are run in set-up; they fill the plan and kernel caches
	// and are the done specs that hit arrivals resubmit.
	serveWarmJobs = 3
	// pollEvery is the status poller's pause between sweeps; it bounds how
	// late a transition is observed.
	pollEvery = 5 * time.Millisecond
	// serveGrace bounds how long after the schedule ends the run waits for
	// its last jobs.
	serveGrace = 90 * time.Second
)

type serveState struct {
	pred   *model.Predictor
	train  trainStats
	scorer *timedScorer // nil when untraced
	srv    *serve.Server
	http   *httptest.Server
	dir    string
	submit *http.Client
	poll   *http.Client
	sched  []arrival
}

// close stops the listener and the server and removes the job store.
func (st serveState) close() {
	st.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	os.RemoveAll(st.dir)
}

// oneConnClient is an HTTP client that never opens a second connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

func setupServe(b *bench) (serveState, error) {
	pred, ts, err := trainPredictor()
	if err != nil {
		return serveState{}, err
	}
	st := serveState{pred: pred, train: ts, submit: oneConnClient(), poll: oneConnClient()}
	var scorer core.Scorer = pred
	if b.trace {
		st.scorer = &timedScorer{p: pred}
		scorer = st.scorer
	}
	if st.dir, err = os.MkdirTemp(b.dir, "serve-"); err != nil {
		return serveState{}, err
	}
	if st.srv, err = serve.NewServer(serve.Config{Dir: st.dir, Scorer: scorer}); err != nil {
		os.RemoveAll(st.dir)
		return serveState{}, err
	}
	st.srv.Start()
	st.http = httptest.NewServer(st.srv.Handler())

	rng := rand.New(rand.NewSource(corpusSeed ^ 0x5eed))
	var warm []serve.JobSpec
	seen := map[string]bool{}
	for i := 0; i < serveWarmJobs; i++ {
		s, err := genSpecWithContacts(rng, 5+i, seen)
		if err != nil {
			st.close()
			return serveState{}, err
		}
		warm = append(warm, s)
		code, sr, err := post(st.submit, st.http.URL, s)
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("warm-up submit: HTTP %d", code)
		}
		if err == nil {
			err = waitDone(st.poll, st.http.URL, sr.ID, time.Now().Add(serveGrace))
		}
		if err != nil {
			st.close()
			return serveState{}, err
		}
	}
	if st.sched, err = arrivalSchedule(b.seed, b.seconds, serveFreshRate, warm); err != nil {
		st.close()
		return serveState{}, err
	}
	return st, nil
}

func post(c *http.Client, base string, spec serve.JobSpec) (int, serve.SubmitResponse, error) {
	var sr serve.SubmitResponse
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, sr, err
	}
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, sr, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return resp.StatusCode, sr, fmt.Errorf("decode submit response: %w", err)
	}
	return resp.StatusCode, sr, nil
}

func getJob(c *http.Client, base, id string) (serve.SubmitResponse, error) {
	var sr serve.SubmitResponse
	resp, err := c.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("get job %s: HTTP %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&sr)
	return sr, err
}

func waitDone(c *http.Client, base, id string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		sr, err := getJob(c, base, id)
		if err != nil {
			return err
		}
		switch sr.Status {
		case serve.StatusDone:
			return nil
		case serve.StatusFailed:
			return fmt.Errorf("job %s failed: %s", id, sr.Error)
		}
		time.Sleep(pollEvery)
	}
	return fmt.Errorf("job %s not done by the deadline", id)
}

// jobObs is what the load generator observed of one arrival.
type jobObs struct {
	arr           arrival
	due           time.Time // scheduled send time
	late          time.Duration
	acked         time.Time // response to the submit received
	code          int
	id            string
	running, done time.Time // first poll that saw the status
	final         serve.SubmitResponse
	err           error
}

func runServeCells(b *bench) error {
	st, err := timedSetup(b, 3, func() (serveState, error) { return setupServe(b) }, serveState.close)
	if err != nil {
		return err
	}
	defer st.close()

	mem := startMem()
	obs := make([]*jobObs, len(st.sched))
	start := time.Now().Add(20 * time.Millisecond)
	deadline := start.Add(time.Duration(b.seconds)*time.Second + serveGrace)
	// One slot per arrival: the submitter never blocks on the poller.
	pending := make(chan *jobObs, len(st.sched))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(pending)
		for i, a := range st.sched {
			o := &jobObs{arr: a, due: start.Add(a.At)}
			obs[i] = o
			if d := time.Until(o.due); d > 0 {
				time.Sleep(d)
			}
			o.late = time.Since(o.due)
			var sr serve.SubmitResponse
			o.code, sr, o.err = post(st.submit, st.http.URL, a.Spec)
			o.acked = time.Now()
			o.id = sr.ID
			o.final = sr
			if o.err == nil && !a.Hit && o.code == http.StatusAccepted {
				pending <- o
			}
		}
	}()
	go func() {
		defer wg.Done()
		pollJobs(st, pending, deadline)
	}()
	wg.Wait()
	allocMB, gcs := mem.perOp(len(st.sched))

	stats, err := serverStats(st)
	if err != nil {
		return err
	}

	// Output checks and the end-to-end figures.
	w := model.DefaultScoreWeights()
	var lat, hitLat []float64
	cost, epe, sim := map[string]float64{}, map[string]float64{}, map[string]float64{}
	var lastDone time.Time
	var lines []string
	fresh := 0
	for _, o := range obs {
		b.attempted++
		if o.arr.Hit {
			if o.err != nil || o.code != http.StatusOK || !o.final.Cached || o.final.Result == nil {
				b.failed++
				b.problemf("resubmit of a done spec: HTTP %d cached=%v err=%v", o.code, o.final.Cached, o.err)
				continue
			}
			hitLat = append(hitLat, o.acked.Sub(o.due).Seconds())
			continue
		}
		fresh++
		r := o.final.Result
		switch {
		case o.err != nil:
			b.failed++
			b.problemf("fresh job %s: %v", o.id, o.err)
			continue
		case o.code != http.StatusAccepted:
			b.failed++
			b.problemf("fresh job submit: HTTP %d (shed or dedupe hit)", o.code)
			continue
		case o.final.Status != serve.StatusDone || r == nil:
			b.failed++
			b.problemf("fresh job %s settled %q: %s", o.id, o.final.Status, o.final.Error)
			continue
		case r.Interrupted || r.ScorerFallback || r.Degraded:
			b.failed++
			b.problemf("fresh job %s degraded (interrupted=%v scorer_fallback=%v degraded=%v)", o.id, r.Interrupted, r.ScorerFallback, r.Degraded)
			continue
		}
		lat = append(lat, o.done.Sub(o.due).Seconds())
		if o.done.After(lastDone) {
			lastDone = o.done
		}
		name := specName(o.arr.Spec)
		cost[name] = w.Score(r.L2, r.EPEViolations, r.PrintViolations)
		epe[name] = float64(r.EPEViolations)
		sim[name] = r.Seconds
		lines = append(lines, fmt.Sprintf("%s %s %s %s", name, r.Decomposition, r.M1SHA256, r.M2SHA256))
	}
	if len(lines) != fresh {
		lines = append(lines, fmt.Sprintf("incomplete %d/%d", len(lines), fresh))
	}
	b.checkDigest(digest(lines))
	if len(lat) == 0 || len(hitLat) == 0 {
		return fmt.Errorf("no completed fresh jobs or cache hits to measure")
	}

	for _, o := range obs {
		if !o.arr.Hit && !o.done.IsZero() {
			b.logf("job %-22s due %6.2fs latency %.3fs (admit %.1fms, queue %.3fs, run %.3fs, late %.1fms)",
				specName(o.arr.Spec), o.arr.At.Seconds(), o.done.Sub(o.due).Seconds(), ms(o.acked.Sub(o.due)-o.late),
				o.running.Sub(o.acked).Seconds(), o.done.Sub(o.running).Seconds(), ms(o.late))
		}
	}
	b.logf("fresh latency p25 %.3f p50 %.3f p75 %.3f s over %d jobs; submitter late p99 %.1f ms",
		percentile(lat, 0.25), median(lat), percentile(lat, 0.75), len(lat), lateP99(obs))
	if !b.trace {
		makespan := lastDone.Sub(start).Seconds()
		b.put("throughput_per_s", "1/s", float64(len(lat))/makespan)
		b.put("latency_p50_s", "s", median(lat))
		b.put("makespan_s", "s", makespan)
		b.put("ok_share", "ratio", float64(b.attempted-b.failed)/float64(b.attempted))
		b.put("quality_cost", "score", meanByName(cost))
		b.put("peak_rss_mb", "MB", peakRSSMB())
		return nil
	}
	b.put("epe_per_layout", "count", meanByName(epe))
	b.put("sim_s_per_layout", "model_s", meanByName(sim))
	return traceServe(b, st, obs, lat, hitLat, stats, allocMB, gcs)
}

// pollJobs sweeps the pending fresh jobs over the poll connection until the
// submitter is done and every job has settled (or the deadline passes),
// recording when each job was first seen running and done.
func pollJobs(st serveState, pending <-chan *jobObs, deadline time.Time) {
	var open []*jobObs
	more := true
	for more || len(open) > 0 {
		for drained := false; more && !drained; {
			select {
			case o, ok := <-pending:
				if !ok {
					more = false
				} else {
					open = append(open, o)
				}
			default:
				drained = true
			}
		}
		if time.Now().After(deadline) {
			for _, o := range open {
				o.err = fmt.Errorf("not settled by the deadline (status %q)", o.final.Status)
			}
			return
		}
		keep := open[:0]
		for _, o := range open {
			sr, err := getJob(st.poll, st.http.URL, o.id)
			now := time.Now()
			if err != nil {
				o.err = err
				continue
			}
			o.final = sr
			switch sr.Status {
			case serve.StatusRunning:
				if o.running.IsZero() {
					o.running = now
				}
			case serve.StatusDone, serve.StatusFailed:
				if o.running.IsZero() {
					o.running = now
				}
				o.done = now
				continue
			}
			keep = append(keep, o)
		}
		open = keep
		time.Sleep(pollEvery)
	}
}

func serverStats(st serveState) (serve.Stats, error) {
	var s serve.Stats
	resp, err := st.poll.Get(st.http.URL + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

func specName(s serve.JobSpec) string {
	if s.Cell != "" {
		return s.Cell
	}
	if s.GenSeed != nil {
		return fmt.Sprintf("gen_seed=%d", *s.GenSeed)
	}
	return s.ID()
}

// traceServe prints serve_cells' per-layer metrics. Admission, queue wait
// and run time come from the load generator's own timestamps; the core,
// decomp, ilt and simclock figures from replaying every fresh job through
// the flow's stages with the same predictor and a cancellable context, as
// the server's executor runs them.
func traceServe(b *bench, st serveState, obs []*jobObs, lat, hitLat []float64, stats serve.Stats, allocMB, gcs float64) error {
	var admit, queue, run, compute []float64
	var lt layerTotals
	var layerS float64
	for _, o := range obs {
		if o.arr.Hit || o.final.Result == nil || o.done.IsZero() {
			continue
		}
		r := o.final.Result
		admitted := o.acked.Sub(o.due) - o.late
		admit = append(admit, ms(admitted))
		queue = append(queue, o.running.Sub(o.acked).Seconds())
		run = append(run, o.done.Sub(o.running).Seconds())
		l, err := o.arr.Spec.Layout()
		if err != nil {
			return err
		}
		rp, err := replayFlow(l, core.DefaultConfig(), st.pred, nil, r.Attempts, r.Forced, true)
		if err != nil {
			return err
		}
		if rp.clock.Seconds() != r.Seconds || rp.candidates != r.Candidates {
			b.problemf("replay of %s: %v model s over %d candidates, job sealed %v over %d",
				specName(o.arr.Spec), rp.clock.Seconds(), rp.candidates, r.Seconds, r.Candidates)
		}
		lt.add(rp, r.Forced)
		c := (rp.genDur + rp.predictDur + rp.iltDur()).Seconds()
		compute = append(compute, c)
		b.logf("job %-22s run %.3fs, replayed alone %.3fs", specName(o.arr.Spec), o.done.Sub(o.running).Seconds(), c)
		layerS += admitted.Seconds() + o.running.Sub(o.acked).Seconds() + c
	}
	calls, images, busy := st.scorer.snapshot()
	lt.put(b, calls, images, busy)
	b.put("serve.admit_p50_ms", "ms", median(admit))
	b.put("serve.queue_wait_p50_s", "s", median(queue))
	b.put("serve.run_p50_s", "s", median(run))
	b.put("serve.compute_p50_s", "s", median(compute))
	b.put("serve.cache_hit_p50_ms", "ms", 1000*median(hitLat))
	b.put("serve.shed", "count", float64(stats.Shed))
	b.put("serve.retries", "count", float64(stats.Retries))
	// With fewer than 20 fresh jobs no percentile has ten samples beyond it,
	// and the tail prints as 0.
	level, value, _ := tail(lat)
	b.put("serve.job_tail_s", "s", value)
	b.put("serve.job_tail_pct", "%", 100*level)
	b.put("serve.job_tail_samples", "count", float64(len(lat)))
	b.put("loadgen.late_p99_ms", "ms", lateP99(obs))
	b.put("trace.coverage", "ratio", layerS/sum(lat))
	// The first four fresh cell jobs, under a cancellable context as the
	// server runs them.
	var cells []layout.Layout
	for _, a := range st.sched {
		if !a.Hit && a.Spec.Cell != "" && len(cells) < 4 {
			l, err := a.Spec.Layout()
			if err != nil {
				return err
			}
			cells = append(cells, l)
		}
	}
	overhead, err := traceOverhead(st.pred, core.DefaultConfig(), cells, true)
	if err != nil {
		return err
	}
	b.put("trace.overhead", "ratio", overhead)
	putTraining(b, st.train)
	b.put("go.alloc_mb_per_op", "MB", allocMB)
	b.put("go.gc_cycles_per_op", "count", gcs)
	clips, err := makeClips(corpusSeed, 1)
	if err != nil {
		return err
	}
	return putKernels(b, clips[0], st.pred)
}

// lateP99 is how late the submitter sent, against the schedule, at p99.
func lateP99(obs []*jobObs) float64 {
	var late []float64
	for _, o := range obs {
		late = append(late, ms(o.late))
	}
	return percentile(late, 0.99)
}
