package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/units"
)

// The serving workloads drive memmodeld's handler behind a real
// loopback listener through the client SDK, open loop: requests are due
// at seeded Poisson times and each is timed from when it was due.

// serveWorkload selects the request source.
type serveWorkload struct {
	// hot draws every request from a fixed catalogue, so after warm-up
	// nearly every request is a scenario-cache hit; otherwise every
	// scenario carries a distinct seeded parameter and the cache only
	// fills and evicts.
	hot bool
}

var serveWorkloads = map[string]serveWorkload{
	"serve-hot":  {hot: true},
	"serve-cold": {},
}

const (
	// fixedRate is the offered rate at which latency and CPU per request
	// are reported: busy enough that the runtime's idle wake-ups do not
	// dominate CPU per request (at 400 req/s they made it bimodal from run
	// to run), light enough to leave the two cores mostly idle.
	fixedRate = 2000.0
	// p99LimitMS is the latency limit a ladder rung's tail must meet.
	p99LimitMS = 20.0
	// spinWindow is how long before a due time the pacer stops sleeping
	// and spins, since a sleep alone wakes late.
	spinWindow = 100 * time.Microsecond
	// clusterShare is the share of serve-cold requests that simulate a
	// small fleet. It is an assumption with no measured source: nothing
	// records memmodeld's traffic, so it is only kept small.
	clusterShare = 0.01
)

// ladder is the fixed set of offered rates (req/s) max_rps is read from.
var ladder = []float64{1000, 2000, 3000, 4000, 5000, 6000, 8000}

// Endpoint kinds.
const (
	kEvaluate = iota
	kTopology
	kSweep
	kCluster
)

// request is one scenario and its expected answer's fingerprint (zero
// until the reference is computed).
type request struct {
	kind  int
	eval  *api.EvaluateRequest
	topo  *api.TopologyRequest
	sweep *api.SweepRequest
	clus  *api.ClusterRequest
	ref   uint64
}

// hotCatalogue is the fixed scenario set of both serve workloads: three
// classes, each on four single-tier platforms (12 evaluations), four
// topologies (12) and two sweep axes (6).
func hotCatalogue() []*request {
	var evals, topos, sweeps []*request
	classes := []string{"bigdata", "enterprise", "hpc"}
	for _, c := range classes {
		for _, ns := range []float64{75, 95, 115, 135} {
			evals = append(evals, &request{kind: kEvaluate, eval: &api.EvaluateRequest{
				Params:   api.ParamsSpec{Class: c},
				Platform: api.PlatformSpec{CompulsoryNS: ns},
			}})
		}
		for _, top := range hotTopologies() {
			topos = append(topos, &request{kind: kTopology, topo: &api.TopologyRequest{
				Params: api.ParamsSpec{Class: c}, Topology: top,
			}})
		}
		for _, axis := range []string{"latency", "bandwidth"} {
			sweeps = append(sweeps, &request{kind: kSweep, sweep: &api.SweepRequest{
				Classes: []api.ParamsSpec{{Class: c}}, Axis: axis,
			}})
		}
	}
	return append(append(evals, topos...), sweeps...)
}

func hotTopologies() []api.TopologySpec {
	dram := api.TopologyTierSpec{Name: "dram", CompulsoryNS: 75, PeakGBps: 42}
	cxl := api.TopologyTierSpec{Name: "cxl", CompulsoryNS: 170, PeakGBps: 20}
	one := dram
	one.Share = 1
	d8, c2 := dram, cxl
	d8.Share, c2.Share = 0.8, 0.2
	d3, c1 := dram, cxl
	d3.Share, c1.Share = 3, 1
	link := api.TopologyTierSpec{Name: "link", CompulsoryNS: 60, PeakGBps: 30}
	return []api.TopologySpec{
		{Name: "flat", Tiers: []api.TopologyTierSpec{one}},
		{Name: "dram+cxl", Tiers: []api.TopologyTierSpec{d8, c2}},
		{Name: "interleave", Policy: "interleave", Tiers: []api.TopologyTierSpec{d3, c1}},
		{Name: "numa", Policy: "local-remote", RemoteFraction: 0.3, Tiers: []api.TopologyTierSpec{dram, link}},
	}
}

// drawHot picks one catalogue entry, every entry equally likely, so the
// endpoint shares are the catalogue's: 40% evaluations, 40% topologies,
// 20% sweeps.
func drawHot(r *rng, cat []*request) *request {
	return cat[r.next()%uint64(len(cat))]
}

// drawCold makes the step-th distinct scenario (step > 0). With
// probability clusterShare it is a fleet simulation with its own seed;
// otherwise it is a catalogue entry drawn as drawHot draws one, with its
// class's MPKI raised by step parts in 2^44. That moves the answer only
// in its last digits, so the work is the catalogue entry's, but no two
// scenarios share a cache key.
func drawCold(r *rng, cat []*request, step uint64) *request {
	if r.float() < clusterShare {
		classes := []string{"bigdata", "enterprise", "hpc"}
		return &request{kind: kCluster, clus: &api.ClusterRequest{
			Hosts:     []api.ClusterHostSpec{{Name: "dram", Count: 2, Topology: hotTopologies()[0]}},
			Tenants:   []api.ClusterTenantSpec{{Name: "t", Params: api.ParamsSpec{Class: classes[r.next()%3]}, RateRPS: 800}},
			Policies:  []string{"least-loaded"},
			DurationS: 1,
			WarmupS:   0.125,
			Seed:      r.next() | 1,
		}}
	}
	c := *drawHot(r, cat)
	c.ref = 0
	var ps *api.ParamsSpec
	switch c.kind {
	case kEvaluate:
		e := *c.eval
		c.eval, ps = &e, &e.Params
	case kTopology:
		t := *c.topo
		c.topo, ps = &t, &t.Params
	case kSweep:
		sw := *c.sweep
		sw.Classes = append([]api.ParamsSpec(nil), sw.Classes...)
		c.sweep, ps = &sw, &sw.Classes[0]
	}
	// Catalogue params are a valid class, so this cannot fail.
	p, _ := ps.Params()
	ps.MPKI = p.MPKI * (1 + float64(step)*0x1p-44)
	return &c
}

// fingerprint hashes every field of an answer but its cached flag,
// floats by their bits, so equal fingerprints mean bit-equal answers.
type fingerprint struct {
	h interface{ Write([]byte) (int, error) }
}

func (f fingerprint) u(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	f.h.Write(b[:])
}
func (f fingerprint) fl(v float64) { f.u(math.Float64bits(v)) }
func (f fingerprint) s(v string)   { f.u(uint64(len(v))); f.h.Write([]byte(v)) }
func (f fingerprint) b(v bool) {
	if v {
		f.u(1)
	} else {
		f.u(0)
	}
}
func (f fingerprint) solver(s api.SolverBody) {
	f.u(uint64(s.Solves))
	f.u(uint64(s.Iterations))
	f.u(uint64(s.Fallbacks))
	f.u(uint64(s.BandwidthLimited))
	f.fl(s.WorstResidual)
}

func fpEvaluate(r *api.EvaluateResponse) uint64 {
	h := fnv.New64a()
	f := fingerprint{h}
	f.s(r.Workload)
	f.s(r.Platform)
	p := r.Point
	for _, v := range []float64{p.CPI, p.MissPenaltyNS, p.QueueNS, p.DemandGBps, p.DeliveredGBps, p.Utilization, p.ThroughputGIPS} {
		f.fl(v)
	}
	f.b(p.BandwidthBound)
	f.solver(r.Solver)
	return h.Sum64()
}

func fpTopology(r *api.TopologyResponse) uint64 {
	h := fnv.New64a()
	f := fingerprint{h}
	f.s(r.Workload)
	f.s(r.Platform)
	f.s(r.Policy)
	f.fl(r.CPI)
	f.fl(r.EffectiveNS)
	f.b(r.BandwidthBound)
	f.s(r.Limiter)
	for _, t := range r.Tiers {
		f.s(t.Name)
		for _, v := range []float64{t.MissPenaltyNS, t.DemandGBps, t.DeliveredGBps, t.Utilization} {
			f.fl(v)
		}
		f.b(t.Saturated)
	}
	f.solver(r.Solver)
	return h.Sum64()
}

func fpSweep(r *api.SweepResponse, classes []string) uint64 {
	h := fnv.New64a()
	f := fingerprint{h}
	f.s(r.Axis)
	for _, p := range r.Points {
		f.s(p.Platform)
		f.fl(p.Delta)
		f.u(uint64(len(p.CPI)))
		f.u(uint64(len(p.CPIIncrease)))
		for _, c := range classes {
			f.fl(p.CPI[c])
			f.fl(p.CPIIncrease[c])
		}
	}
	f.solver(r.Solver)
	return h.Sum64()
}

// fpCluster covers what identifies a fleet simulation: each policy's
// event count and event hash.
func fpCluster(r *api.ClusterResponse) uint64 {
	h := fnv.New64a()
	f := fingerprint{h}
	for _, p := range r.Policies {
		f.s(p.Policy)
		f.u(uint64(p.Events))
		f.s(p.EventHash)
	}
	return h.Sum64()
}

// sweepClassNames lists the class names a sweep answer is keyed by.
func sweepClassNames(req *api.SweepRequest) ([]string, error) {
	var names []string
	for _, c := range req.Classes {
		p, err := c.Params()
		if err != nil {
			return nil, err
		}
		names = append(names, p.Name)
	}
	return names, nil
}

// reference computes a request's answer in process — from the wire spec
// through the model, without HTTP or the scenario cache — and returns
// its fingerprint. It mirrors the daemon's response construction.
func reference(ctx context.Context, req *request) (uint64, error) {
	agg := &solve.Aggregate{}
	ctx = solve.WithRecorder(ctx, agg)
	solver := func() api.SolverBody {
		st := agg.Stats()
		return api.SolverBody{Solves: st.Solves, Iterations: st.Iterations, Fallbacks: st.Fallbacks,
			BandwidthLimited: st.BandwidthLimited, WorstResidual: st.MaxResidual}
	}
	switch req.kind {
	case kEvaluate:
		p, err := req.eval.Params.Params()
		if err != nil {
			return 0, err
		}
		pl, err := req.eval.Platform.Platform()
		if err != nil {
			return 0, err
		}
		op, err := model.Evaluate(ctx, p, pl)
		if err != nil {
			return 0, err
		}
		return fpEvaluate(&api.EvaluateResponse{
			Workload: p.Name, Platform: pl.Name, Solver: solver(),
			Point: api.OperatingPointBody{
				CPI: op.CPI, MissPenaltyNS: op.MissPenalty.Nanoseconds(), QueueNS: op.QueueDelay.Nanoseconds(),
				DemandGBps: op.Demand.GBps(), DeliveredGBps: op.Delivered.GBps(), Utilization: op.Utilization,
				BandwidthBound: op.BandwidthBound, ThroughputGIPS: op.Throughput(pl) / 1e9,
			},
		}), nil
	case kTopology:
		p, err := req.topo.Params.Params()
		if err != nil {
			return 0, err
		}
		top, err := req.topo.Topology.Topology()
		if err != nil {
			return 0, err
		}
		pt, err := model.EvaluateTopology(ctx, p, top)
		if err != nil {
			return 0, err
		}
		resp := api.TopologyResponse{
			Workload: p.Name, Platform: top.Name, Policy: top.Policy.String(), CPI: pt.CPI,
			EffectiveNS: pt.EffectiveMP.Nanoseconds(), BandwidthBound: pt.BandwidthBound, Limiter: pt.Limiter,
		}
		for _, t := range pt.Tiers {
			resp.Tiers = append(resp.Tiers, api.TopologyTierPointBody{
				Name: t.Name, MissPenaltyNS: t.MissPenalty.Nanoseconds(), DemandGBps: t.Demand.GBps(),
				DeliveredGBps: t.Delivered.GBps(), Utilization: t.Utilization, Saturated: t.Saturated,
			})
		}
		resp.Solver = solver()
		return fpTopology(&resp), nil
	case kSweep:
		var classes []model.Params
		for _, c := range req.sweep.Classes {
			p, err := c.Params()
			if err != nil {
				return 0, err
			}
			classes = append(classes, p)
		}
		pl, err := req.sweep.Platform.Platform()
		if err != nil {
			return 0, err
		}
		var sw model.Sweep
		if req.sweep.Axis == "latency" {
			sw, err = model.LatencySweep(ctx, pl, classes, 10, 10)
		} else {
			sw, err = model.BandwidthSweep(ctx, pl, classes, model.PaperBandwidthVariants())
		}
		if err != nil {
			return 0, err
		}
		resp := api.SweepResponse{Axis: req.sweep.Axis, Solver: solver()}
		for _, pt := range sw.Points {
			body := api.SweepPointBody{Platform: pt.Platform.Name, Delta: pt.DeltaPerCore,
				CPI: map[string]float64{}, CPIIncrease: map[string]float64{}}
			for name, op := range pt.Ops {
				body.CPI[name] = op.CPI
			}
			for name, inc := range pt.CPIIncrease {
				body.CPIIncrease[name] = inc
			}
			resp.Points = append(resp.Points, body)
		}
		names, err := sweepClassNames(req.sweep)
		if err != nil {
			return 0, err
		}
		return fpSweep(&resp, names), nil
	case kCluster:
		resp, err := simulateCluster(ctx, req.clus)
		if err != nil {
			return 0, err
		}
		return fpCluster(&resp), nil
	}
	return 0, fmt.Errorf("unknown request kind %d", req.kind)
}

// clusterSpec builds the cluster.Spec the daemon derives from the fleet
// requests drawCold makes (explicit hosts, tenants, policies, duration
// and warm-up).
func clusterSpec(req *api.ClusterRequest) (cluster.Spec, error) {
	spec := cluster.Spec{
		Duration: units.Duration(req.DurationS * 1e9),
		Warmup:   units.Duration(req.WarmupS * 1e9),
		Seed:     req.Seed,
	}
	for _, hs := range req.Hosts {
		top, err := hs.Topology.Topology()
		if err != nil {
			return cluster.Spec{}, err
		}
		for i := 0; i < hs.Count; i++ {
			spec.Hosts = append(spec.Hosts, cluster.HostSpec{Name: fmt.Sprintf("%s-%d", hs.Name, i), Topology: top})
		}
	}
	for _, ts := range req.Tenants {
		p, err := ts.Params.Params()
		if err != nil {
			return cluster.Spec{}, err
		}
		spec.Tenants = append(spec.Tenants, cluster.TenantSpec{Name: ts.Name, Params: p, Rate: ts.RateRPS, Work: cluster.DefaultWork})
	}
	return spec, nil
}

// simulateCluster runs the request's fleet in process, one simulation
// per policy, and reports the fields fpCluster covers.
func simulateCluster(ctx context.Context, req *api.ClusterRequest) (api.ClusterResponse, error) {
	spec, err := clusterSpec(req)
	if err != nil {
		return api.ClusterResponse{}, err
	}
	var resp api.ClusterResponse
	for _, name := range req.Policies {
		pol, err := cluster.ParsePolicy(name)
		if err != nil {
			return api.ClusterResponse{}, err
		}
		sp := spec
		sp.Policy = pol
		res, err := cluster.Simulate(ctx, sp)
		if err != nil {
			return api.ClusterResponse{}, err
		}
		resp.Policies = append(resp.Policies, api.ClusterPolicyBody{
			Policy: res.Policy.String(), Events: res.Events, EventHash: fmt.Sprintf("%016x", res.EventHash),
		})
	}
	return resp, nil
}

// callRec follows one client call through its attempts; the transport
// finds it in the request context.
type callRec struct {
	id    uint64
	nonOK bool
	span  int // the call's span index when traced
}

type callKey struct{}

// benchTransport marks calls that saw a non-2xx reply and, when
// traced, records one span per attempt and tells the server which span
// a request belongs to.
type benchTransport struct {
	base http.RoundTripper
	tr   *Tracer // nil when untraced
}

const (
	hdrCall = "X-Bench-Call"
	hdrSpan = "X-Bench-Span"
)

func (t *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec, _ := req.Context().Value(callKey{}).(*callRec)
	if rec == nil {
		return t.base.RoundTrip(req)
	}
	if t.tr == nil {
		res, err := t.base.RoundTrip(req)
		if res != nil && res.StatusCode/100 != 2 {
			rec.nonOK = true
		}
		return res, err
	}
	i := t.tr.begin("client.attempt", rec.span, rec.id)
	req = req.Clone(req.Context())
	req.Header.Set(hdrCall, strconv.FormatUint(rec.id, 10))
	req.Header.Set(hdrSpan, strconv.Itoa(i))
	res, err := t.base.RoundTrip(req)
	t.tr.finish(i)
	if res != nil && res.StatusCode/100 != 2 {
		rec.nonOK = true
	}
	return res, err
}

// timedHandler records one span per server-side request when tracing is
// on, parented to the client attempt that sent it, and counts reply
// bytes.
type timedHandler struct {
	next http.Handler
	tr   *Tracer

	mu    sync.Mutex
	bytes []float64 // reply size per traced request
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.Header.Get(hdrCall), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
	if err != nil {
		parent = -1
	}
	cw := &countingWriter{ResponseWriter: w}
	start := h.tr.now()
	h.next.ServeHTTP(cw, r)
	end := h.tr.now()
	h.tr.add(Span{Name: "serve.handler", Start: start, End: end, Parent: parent, ID: id})
	h.mu.Lock()
	h.bytes = append(h.bytes, float64(cw.n))
	h.mu.Unlock()
}

// harness is one running daemon and its clients. Both clients share one
// connection pool of GOMAXPROCS connections; tcl, present only when the
// harness has a tracer, records spans.
type harness struct {
	srv     *http.Server
	done    chan struct{}
	url     string
	base    *http.Transport
	hc      *http.Client
	cl, tcl *client.Client
	handler *timedHandler
	conns   int
	closed  bool
}

// startHarness builds the daemon with memmodeld's defaults behind a
// loopback listener. With a tracer, the handler is wrapped in a timing
// middleware that records requests sent by the traced client.
func startHarness(tr *Tracer) (*harness, error) {
	conns := runtime.GOMAXPROCS(0)
	srv := serve.New(
		serve.WithCacheSize(4096),
		serve.WithAdmission(runtime.GOMAXPROCS(0), 64),
		serve.WithRequestTimeout(10*time.Second),
		serve.WithFaults(serve.FaultConfig{Seed: 1}),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{done: make(chan struct{}), url: "http://" + ln.Addr().String(), conns: conns}
	var handler http.Handler = srv.Handler()
	if tr != nil {
		h.handler = &timedHandler{next: handler, tr: tr}
		handler = h.handler
	}
	h.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(h.done)
		_ = h.srv.Serve(ln)
	}()
	h.base = http.DefaultTransport.(*http.Transport).Clone()
	h.base.Proxy = nil
	h.base.MaxConnsPerHost = conns
	h.base.MaxIdleConnsPerHost = conns
	h.hc = &http.Client{Transport: &benchTransport{base: h.base}}
	h.cl = client.New(h.url, client.WithHTTPClient(h.hc))
	if tr != nil {
		h.tcl = client.New(h.url, client.WithHTTPClient(&http.Client{Transport: &benchTransport{base: h.base, tr: tr}}))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.cl.Healthz(ctx); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops the server and waits for its goroutine to end.
func (h *harness) close() {
	if h.closed {
		return
	}
	h.closed = true
	_ = h.srv.Close()
	<-h.done
	h.base.CloseIdleConnections()
}

// call sends one request through cl and returns its answer's
// fingerprint.
func call(ctx context.Context, cl *client.Client, req *request) (uint64, error) {
	switch req.kind {
	case kEvaluate:
		r, err := cl.Evaluate(ctx, *req.eval)
		if err != nil {
			return 0, err
		}
		return fpEvaluate(r), nil
	case kTopology:
		r, err := cl.EvaluateTopology(ctx, *req.topo)
		if err != nil {
			return 0, err
		}
		return fpTopology(r), nil
	case kSweep:
		r, err := cl.Sweep(ctx, *req.sweep)
		if err != nil {
			return 0, err
		}
		names, err := sweepClassNames(req.sweep)
		if err != nil {
			return 0, err
		}
		return fpSweep(r, names), nil
	case kCluster:
		r, err := cl.ClusterSimulate(ctx, *req.clus)
		if err != nil {
			return 0, err
		}
		return fpCluster(r), nil
	}
	return 0, fmt.Errorf("unknown request kind %d", req.kind)
}

// outcome is one request's result.
type outcome struct {
	latMS  float64 // from due time to reply
	failed bool
	fp     uint64
	late   float64 // pacer lateness in ms, when the worker waited for the due time
	waited bool
	callNS int64
	id     uint64
}

// phase is one open-loop run at a fixed offered rate.
type phase struct {
	reqs []*request
	due  []time.Duration // offsets from the phase start
	out  []outcome
	// measured
	wall  time.Duration // first due time to last reply
	drain time.Duration // last due time to last reply
	cpu   time.Duration // process CPU over the phase, pacer spin excluded
	spin  time.Duration
}

// newPhase schedules n arrivals at Poisson times of the given rate,
// drawing each scenario from draw.
func newPhase(r *rng, rate float64, n int, draw func() *request) *phase {
	p := &phase{due: make([]time.Duration, n), reqs: make([]*request, n), out: make([]outcome, n)}
	t := 0.0
	for i := range p.reqs {
		t += -math.Log(1-r.float()) / rate
		p.due[i] = time.Duration(t * 1e9)
		p.reqs[i] = draw()
	}
	return p
}

// newBurst makes a phase whose requests are all due at its start; its
// wall time is the time the backlog takes to drain.
func newBurst(reqs []*request) *phase {
	return &phase{reqs: reqs, due: make([]time.Duration, len(reqs)), out: make([]outcome, len(reqs))}
}

// pace waits until due: sleep, then spin for the last spinWindow. It
// returns how late it woke (ms), whether it waited at all, and how long
// it spun.
func pace(due time.Time) (lateMS float64, waited bool, spun time.Duration) {
	now := time.Now()
	if !now.Before(due) {
		return 0, false, 0
	}
	if d := due.Sub(now); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	s := time.Now()
	for time.Now().Before(due) {
	}
	end := time.Now()
	return float64(end.Sub(due).Nanoseconds()) / 1e6, true, end.Sub(s)
}

// run drives the phase with one worker per client connection. Each
// worker takes the next request, waits until it is due (or sends at once
// when it is already late) and times it from the due time, so a stall
// delays the latencies of the requests behind it. With a tracer the
// requests go through the traced client and record spans.
func (p *phase) run(h *harness, tr *Tracer, idBase uint64) {
	cl := h.cl
	if tr != nil {
		cl = h.tcl
	}
	n := len(p.reqs)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	spins := make([]time.Duration, h.conns)
	start := time.Now().Add(5 * time.Millisecond)
	cpu0 := cpuTime()
	done := make(chan struct{})
	for wk := 0; wk < h.conns; wk++ {
		go func(wk int) {
			defer func() { done <- struct{}{} }()
			for i := range next {
				due := start.Add(p.due[i])
				late, waited, spun := pace(due)
				spins[wk] += spun
				rec := &callRec{id: idBase + uint64(i), span: -1}
				ctx := context.WithValue(context.Background(), callKey{}, rec)
				if tr != nil {
					rec.span = tr.begin("client.call", -1, rec.id)
				}
				t0 := time.Now()
				fp, err := call(ctx, cl, p.reqs[i])
				t1 := time.Now()
				if tr != nil {
					tr.finish(rec.span)
				}
				p.out[i] = outcome{
					latMS:  float64(t1.Sub(due).Nanoseconds()) / 1e6,
					failed: err != nil || rec.nonOK,
					fp:     fp,
					late:   late,
					waited: waited,
					callNS: t1.Sub(t0).Nanoseconds(),
					id:     rec.id,
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", rec.id, err)
				}
			}
		}(wk)
	}
	for wk := 0; wk < h.conns; wk++ {
		<-done
	}
	end := time.Now()
	for _, s := range spins {
		p.spin += s
	}
	p.cpu = cpuTime() - cpu0 - p.spin
	if n > 0 {
		p.wall = end.Sub(start.Add(p.due[0]))
		p.drain = end.Sub(start.Add(p.due[n-1]))
	}
}

// verify fills missing references and counts answers that failed or
// differ from their reference.
func (p *phase) verify(ctx context.Context) (failed int, err error) {
	for i, req := range p.reqs {
		if req.ref == 0 {
			if req.ref, err = reference(ctx, req); err != nil {
				return 0, fmt.Errorf("reference: %w", err)
			}
		}
		o := &p.out[i]
		if !o.failed && o.fp != req.ref {
			o.failed = true
			fmt.Fprintf(os.Stderr, "perfbench: request %d: answer differs from its in-process reference\n", o.id)
		}
		if o.failed {
			failed++
		}
	}
	return failed, nil
}

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.out))
	for i, o := range p.out {
		out[i] = o.latMS
		if o.failed {
			out[i] = math.Inf(1) // a failed request misses every limit
		}
	}
	return out
}

func (p *phase) lateness() []float64 {
	var out []float64
	for _, o := range p.out {
		if o.waited {
			out = append(out, o.late)
		}
	}
	return out
}

// tail returns the p99 latency, or the highest percentile the sample
// count supports, and that percentile.
func tail(lat []float64) (float64, float64) {
	p, ok := tailPercentile(len(lat))
	if !ok {
		return percentile(lat, 100), 100
	}
	if p > 99 {
		p = 99
	}
	return percentile(lat, p), p
}

// serveStack is the set-up shared by timed and traced runs.
type serveStack struct {
	h    *harness
	r    rng
	cat  []*request
	hot  bool
	step uint64 // serve-cold's last distinct-scenario step
	warm *phase
}

// draw returns the next scenario of the workload.
func (s *serveStack) draw() *request {
	if s.hot {
		return drawHot(&s.r, s.cat)
	}
	s.step++
	return drawCold(&s.r, s.cat, s.step)
}

// coldWarmup is how many distinct scenarios warm serve-cold's daemon.
const coldWarmup = 64

// newServeStack starts the daemon and warms it, every warm-up request
// sent as soon as a connection is free: every catalogue entry once with
// its reference answer (serve-hot), or coldWarmup distinct scenarios
// (serve-cold), so connections are open and lazy set-up is done before
// timing.
func newServeStack(w serveWorkload, seed uint64, tr *Tracer) (*serveStack, error) {
	s := &serveStack{r: rng(seed), hot: w.hot, cat: hotCatalogue()}
	h, err := startHarness(tr)
	if err != nil {
		return nil, err
	}
	s.h = h
	ctx := context.Background()
	if w.hot {
		for _, req := range s.cat {
			if req.ref, err = reference(ctx, req); err != nil {
				h.close()
				return nil, fmt.Errorf("reference: %w", err)
			}
		}
		s.warm = newBurst(s.cat)
	} else {
		reqs := make([]*request, coldWarmup)
		for i := range reqs {
			reqs[i] = s.draw()
		}
		s.warm = newBurst(reqs)
	}
	s.warm.run(h, nil, 1<<40)
	return s, nil
}

const (
	// serveProcs is the GOMAXPROCS of every serve process, and so (as
	// memmodeld's defaults derive them from it) the daemon's admission
	// concurrency and the client's connection count. With two Ps a
	// burst needs both vCPUs of a 2-vCPU host, so any other load on the
	// host stretches it: with a second process busy half the time, the
	// median burst drain times of one run's three child processes were up
	// to 1.7x apart, against at most 1.2x with one P.
	serveProcs = 1
	// burstSize is how many requests one burst of a timed serve run
	// sends at once.
	burstSize = 1000
	// sliceS is the length of one fixed-rate slice of a timed serve run.
	sliceS = 0.2
	// minRounds is the fewest rounds a serve child measures.
	minRounds = 5
	// serveChildren is how many fresh processes share a timed serve run.
	// A process's level (its heap, its scheduling) shifts its figures
	// together; the median over processes drops one that is off.
	serveChildren = 3
	// serveChildSetups is how many set-ups each serve child times.
	serveChildSetups = setupReps/serveChildren + 1
)

// serveChildResult is one serve child's share of a timed run.
type serveChildResult struct {
	SetupS    []float64 `json:"setup_s"`
	CPUS      float64   `json:"cpu_s"` // fixed-rate requests, pacer spin excluded
	Requests  int       `json:"requests"`
	BurstS    []float64 `json:"burst_s"`     // each burst's drain time
	BurstCPUS []float64 `json:"burst_cpu_s"` // each burst's process CPU
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	P50MS     float64   `json:"p50_ms"`
	TailMS    float64   `json:"tail_ms"`
	TailPct   float64   `json:"tail_percentile"`
	LateMS    float64   `json:"gen_late_ms_p99"`
	SpinS     float64   `json:"pacer_spin_s"`
}

// serveTimed runs serveChildren fresh processes one after another, each
// for its share of the measuring time with its own seed from the run's
// seed, and reports: setup_s as the median of every set-up, cpu_s as
// the median child's CPU per fixed-rate request times the
// fixedRate*seconds/2 requests of a run, wall_s as the median drain time
// of every burst of every child and peak_rss_mb as the median over the
// children.
func serveTimed(o options) (result, error) {
	r := rng(o.seed)
	var res result
	var setups, bursts, rss, perReq []float64
	var children []serveChildResult
	for i := 0; i < serveChildren; i++ {
		var cr serveChildResult
		args := []string{"-child", o.workload, "-seed", strconv.FormatUint(r.next(), 10), "-seconds", strconv.Itoa(int(o.seconds.Seconds()))}
		peak, err := spawnChild(o, args, &cr)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, cr.SetupS...)
		bursts = append(bursts, cr.BurstS...)
		rss = append(rss, peak)
		perReq = append(perReq, cr.CPUS*1e6/float64(cr.Requests))
		res.Attempted += cr.Attempted
		res.Failed += cr.Failed
		children = append(children, cr)
	}
	res.Correct = res.Failed == 0
	res.values = map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(bursts),
		"cpu_s":       median(perReq) / 1e6 * fixedRate * o.seconds.Seconds() / 2,
		"peak_rss_mb": median(rss),
	}
	res.info = map[string]any{
		"fixed_rate":     fixedRate,
		"slice_s":        sliceS,
		"burst_size":     burstSize,
		"bursts":         len(bursts),
		"cpu_us_per_req": perReq,
		"gomaxprocs":     serveProcs,
		"connections":    serveProcs,
		"children":       children,
		"note":           "per child: rounds of a fixed-rate slice (open loop, seeded Poisson arrivals, latency timed from each request's due time, cpu excludes pacer spin) then a burst of burst_size requests all due at once",
	}
	return res, nil
}

// serveChild is the body of one serve child process. It times
// serveChildSetups set-ups, keeps the last, and spends seconds /
// serveChildren of measuring time in rounds. A round is a fixed-rate
// slice, sliceS seconds of Poisson arrivals at fixedRate, then a burst of
// burstSize requests all due at once, each phase checked and dropped
// before the next. Interleaving spreads both kinds of measurement over
// the whole run, so a stretch of load from elsewhere on the host shifts
// them alike instead of one alone. It prints its result as one JSON
// line.
func serveChild(w serveWorkload, seed uint64, seconds time.Duration) error {
	ctx := context.Background()
	var cr serveChildResult
	var s *serveStack
	for i := 0; i < serveChildSetups; i++ {
		t0 := cpuTime()
		ss, err := newServeStack(w, seed, nil)
		if err != nil {
			return err
		}
		cr.SetupS = append(cr.SetupS, (cpuTime() - t0).Seconds())
		if s != nil {
			s.h.close()
		}
		s = ss
	}
	defer s.h.close()

	verify := func(ph *phase) error {
		f, err := ph.verify(ctx)
		cr.Attempted += len(ph.reqs)
		cr.Failed += f
		return err
	}
	if err := verify(s.warm); err != nil {
		return err
	}
	var lat, late []float64
	var cpu, spin time.Duration
	budget := seconds / serveChildren
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		id := uint64(round+1) << 32
		fixed := newPhase(&s.r, fixedRate, int(fixedRate*sliceS), s.draw)
		fixed.run(s.h, nil, id)
		lat = append(lat, fixed.latencies()...)
		late = append(late, fixed.lateness()...)
		cpu += fixed.cpu
		spin += fixed.spin
		cr.Requests += len(fixed.reqs)
		if err := verify(fixed); err != nil {
			return err
		}
		reqs := make([]*request, burstSize)
		for i := range reqs {
			reqs[i] = s.draw()
		}
		b := newBurst(reqs)
		b.run(s.h, nil, id|1<<31)
		cr.BurstS = append(cr.BurstS, b.wall.Seconds())
		cr.BurstCPUS = append(cr.BurstCPUS, b.cpu.Seconds())
		if err := verify(b); err != nil {
			return err
		}
	}
	cr.CPUS = cpu.Seconds()
	cr.P50MS = percentile(lat, 50)
	cr.TailMS, cr.TailPct = tail(lat)
	cr.LateMS = percentile(late, 99)
	cr.SpinS = spin.Seconds()
	// JSON has no infinities: a tail made of failed requests reads as
	// the largest number.
	for _, v := range []*float64{&cr.P50MS, &cr.TailMS} {
		if math.IsInf(*v, 0) {
			*v = math.MaxFloat64
		}
	}
	return json.NewEncoder(os.Stdout).Encode(cr)
}

// climb runs the ladder, each rung for d, and returns the achieved rate
// of the highest rung climbed before the first whose tail misses the
// limit, drains late or fails a request.
func climb(s *serveStack, d time.Duration) (float64, []map[string]any, []*phase) {
	maxRPS := 0.0
	var rungs []map[string]any
	var phases []*phase
	for i, rate := range ladder {
		ph := newPhase(&s.r, rate, int(rate*d.Seconds()), s.draw)
		ph.run(s.h, nil, uint64(i+1)<<32)
		phases = append(phases, ph)
		failed := 0
		for _, o := range ph.out {
			if o.failed {
				failed++
			}
		}
		tl, pct := tail(ph.latencies())
		drain := float64(ph.drain.Nanoseconds()) / 1e6
		achieved := float64(len(ph.reqs)) / ph.wall.Seconds()
		pass := failed == 0 && tl <= p99LimitMS && drain <= p99LimitMS
		rungs = append(rungs, map[string]any{"rate": rate, "tail_ms": tl, "tail_percentile": pct, "achieved": achieved, "drain_ms": drain, "pass": pass})
		if !pass {
			break
		}
		maxRPS = achieved
	}
	return maxRPS, rungs, phases
}

// scrape reads the daemon's /metrics counters.
func (h *harness) scrape() (map[string]float64, error) {
	res, err := h.hc.Get(h.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	return parseProm(res.Body)
}

// serveTraced runs the fixed-rate phase twice — untraced, then traced —
// scraping /metrics around the traced one, and times the model and
// cluster calls in process on the traced phase's scenarios.
func serveTraced(o options) (result, error) {
	w := serveWorkloads[o.workload]
	ctx := context.Background()
	tr := newTracer()
	s, err := newServeStack(w, o.seed, tr)
	if err != nil {
		return result{}, err
	}
	defer s.h.close()
	res := result{}
	third := o.seconds / 3

	perThird := int(fixedRate * third.Seconds())
	plain := newPhase(&s.r, fixedRate, perThird, s.draw)
	plain.run(s.h, nil, 1<<36)

	before, err := s.h.scrape()
	if err != nil {
		return result{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced := newPhase(&s.r, fixedRate, perThird, s.draw)
	traced.run(s.h, tr, 0)
	runtime.ReadMemStats(&ms1)
	cstats := s.h.tcl.Stats()
	after, err := s.h.scrape()
	if err != nil {
		return result{}, err
	}
	maxRPS, rungs, ladderPhases := climb(s, third/time.Duration(len(ladder)))
	for _, ph := range append([]*phase{s.warm, plain, traced}, ladderPhases...) {
		f, err := ph.verify(ctx)
		if err != nil {
			return result{}, err
		}
		res.Attempted += len(ph.reqs)
		res.Failed += f
	}

	// Spans of the traced phase: per request, the call, its attempts and
	// the handler run it caused.
	spans := tr.snapshot()
	handler := map[uint64]int64{}
	var handlerUS []float64
	for _, sp := range spans {
		if sp.Name == "serve.handler" {
			handler[sp.ID] += sp.End - sp.Start
			handlerUS = append(handlerUS, float64(sp.End-sp.Start)/1e3)
		}
	}
	s.h.handler.mu.Lock()
	bytes := append([]float64(nil), s.h.handler.bytes...)
	s.h.handler.mu.Unlock()
	var overheadUS []float64
	for _, oc := range traced.out {
		if hns, ok := handler[oc.id]; ok {
			overheadUS = append(overheadUS, float64(oc.callNS-hns)/1e3)
		}
	}

	// In-process model and cluster timings on the same scenarios.
	var evalUS, clusterMS []float64
	events := 0.0
	for _, req := range traced.reqs {
		switch req.kind {
		case kEvaluate:
			p, err := req.eval.Params.Params()
			if err != nil {
				return result{}, err
			}
			pl, err := req.eval.Platform.Platform()
			if err != nil {
				return result{}, err
			}
			t0 := time.Now()
			if _, err := model.Evaluate(ctx, p, pl); err != nil {
				return result{}, err
			}
			evalUS = append(evalUS, float64(time.Since(t0).Nanoseconds())/1e3)
		case kCluster:
			t0 := time.Now()
			resp, err := simulateCluster(ctx, req.clus)
			if err != nil {
				return result{}, err
			}
			clusterMS = append(clusterMS, float64(time.Since(t0).Nanoseconds())/1e6)
			for _, p := range resp.Policies {
				events += float64(p.Events)
			}
		}
	}

	d := func(name string) float64 { return after[name] - before[name] }
	n := float64(len(traced.reqs))
	lookups := d("memmodeld_cache_hits_total") + d("memmodeld_cache_misses_total") + d("memmodeld_cache_singleflight_shared_total")
	solves := d("memmodeld_solver_solves_total")
	cpuPlain := float64(plain.cpu.Nanoseconds()) / float64(len(plain.reqs))
	cpuTraced := float64(traced.cpu.Nanoseconds()) / n
	eventsPerS := 0.0
	if len(clusterMS) > 0 {
		eventsPerS = events / (sum(clusterMS) / 1e3)
	}
	plainLat := plain.latencies()
	plainTail, plainPct := tail(plainLat)
	res.Correct = res.Failed == 0
	res.values = map[string]float64{
		"client.attempts_per_call":   float64(cstats.Attempts) / n,
		"client.overhead_us_p50":     median(overheadUS),
		"serve.handler_us_p50":       percentile(handlerUS, 50),
		"serve.handler_us_p99":       percentile(handlerUS, 99),
		"serve.cache_hit_ratio":      safeDiv(d("memmodeld_cache_hits_total"), lookups),
		"serve.cache_evictions":      d("memmodeld_cache_evictions_total"),
		"serve.shed_ratio":           safeDiv(d("memmodeld_admission_shed_total"), n),
		"serve.resp_bytes_mean":      safeDiv(sum(bytes), float64(len(bytes))),
		"model.evaluate_us_p50":      median(evalUS),
		"solve.iterations_per_solve": safeDiv(d("memmodeld_solver_iterations_total"), solves),
		"solve.fallbacks":            d("memmodeld_solver_fallbacks_total"),
		"cluster.simulate_ms_p50":    median(clusterMS),
		"cluster.events_per_s":       eventsPerS,
		"runtime.allocs_per_req":     float64(ms1.Mallocs-ms0.Mallocs) / n,
		"runtime.gc_cpu_frac":        ms1.GCCPUFraction,
		"serve.p50_ms":               percentile(plainLat, 50),
		"serve.p99_ms":               plainTail,
		"serve.max_rps":              maxRPS,
		"bench.gen_late_ms_p99":      percentile(append(plain.lateness(), traced.lateness()...), 99),
		"bench.trace_overhead_frac":  (cpuTraced - cpuPlain) / cpuPlain,
		"bench.fail_frac":            float64(res.Failed) / float64(res.Attempted),
	}
	res.info = map[string]any{
		"traced_requests":  len(traced.reqs),
		"p99_percentile":   plainPct,
		"ladder":           rungs,
		"latency_note":     "serve.p50_ms and serve.p99_ms come from the untraced fixed-rate phase; serve.max_rps from the ladder after the traced phase",
		"handler_spans":    len(handlerUS),
		"in_process_evals": len(evalUS),
		"cluster_sims":     len(clusterMS),
		"cpu_us_per_req":   map[string]float64{"untraced": cpuPlain / 1e3, "traced": cpuTraced / 1e3},
		"overhead_note":    "bench.trace_overhead_frac compares CPU per request of the traced fixed-rate phase with the untraced one before it",
	}
	res.spans = spans
	return res, nil
}

// safeDiv is a/b, or 0 when there is nothing to divide by.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
