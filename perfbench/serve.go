package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"time"

	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/serve"
	"memcontention/internal/topology"
)

const (
	// openRate is the open loop's fixed offered load, in requests/s,
	// spread over serveConns keep-alive connections.
	openRate   = 2000
	serveConns = 2
	// maxGenLate bounds the generator's p90 send delay in an open-loop
	// block. Beyond it more than a tenth of the block's requests left
	// late enough to move the reported p50 and p90: the block measured
	// the scheduler, not the server.
	maxGenLate  = 100 * time.Microsecond
	requestPool = 4096
)

// request is one generated prediction query, sent as a GET with query
// parameters or as a POST with a JSON body.
type request struct {
	platform, kernel string
	n, mcomp, mcomm  int
	post             bool
	query            string
	body             []byte
}

// serveWL is memserve behind a loopback listener, fed a seeded mix of
// prediction requests by in-process clients.
type serveWL struct {
	seed   uint64
	reg    *obs.Registry
	srv    *serve.Server
	oracle map[string]model.Model // platform|kernel -> locally calibrated model
	reqs   []request
	addr   string
	base   string // http://addr
	stop   context.CancelFunc
	done   chan error
	conns  []*http.Client
	next   int // request cursor of the primary loop
}

func key(platform, kernel string) string { return platform + "|" + kernel }

// setup is New plus a warm calibration cache: Warm covers the default
// kernel of every platform, and one request per remaining kernel fills
// the other entries, 24 in all.
func (s *serveWL) setup(r *run) error {
	s.seed = r.seed*seedBlock + 1
	s.reg = obs.NewRegistry()
	srv, err := serve.New(serve.Options{Seed: s.seed, Registry: s.reg})
	if err != nil {
		return err
	}
	if err := srv.Warm(context.Background()); err != nil {
		return err
	}
	for _, p := range topology.Names() {
		for _, k := range serve.KernelNames()[1:] {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/predict?platform="+p+"&n=1&kernel="+k, nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("warming %s/%s: status %d", p, k, rec.Code)
			}
		}
	}
	s.srv = srv
	return nil
}

// calibrateOracle calibrates every (platform, kernel) locally, the
// reference every reply is checked against.
func calibrateOracle(seed uint64) (map[string]model.Model, error) {
	out := map[string]model.Model{}
	for _, p := range topology.Names() {
		plat, err := topology.ByName(p)
		if err != nil {
			return nil, err
		}
		prof, err := memsys.ProfileFor(p)
		if err != nil {
			return nil, err
		}
		for _, k := range serve.KernelNames() {
			kind, err := serve.KernelByName(k)
			if err != nil {
				return nil, err
			}
			runner, err := bench.NewRunner(bench.Config{Platform: plat, Profile: prof, Kernel: kernels.New(kind), Seed: seed})
			if err != nil {
				return nil, err
			}
			m, err := calib.CalibrateRunner(runner)
			if err != nil {
				return nil, err
			}
			out[key(p, k)] = m
		}
	}
	return out, nil
}

// genRequests draws the request mix: uniform platform, kernel, n and
// placement; half GET, half POST.
func genRequests(seed uint64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	names := topology.Names()
	out := make([]request, n)
	for i := range out {
		p := names[rng.Intn(len(names))]
		plat, err := topology.ByName(p)
		if err != nil {
			return nil, err
		}
		q := request{
			platform: p,
			kernel:   serve.KernelNames()[rng.Intn(len(serve.KernelNames()))],
			n:        1 + rng.Intn(plat.CoresPerSocket()),
			mcomp:    rng.Intn(plat.NNodes()),
			mcomm:    rng.Intn(plat.NNodes()),
			post:     rng.Intn(2) == 1,
		}
		q.query = url.Values{
			"platform": {q.platform}, "kernel": {q.kernel}, "n": {fmt.Sprint(q.n)},
			"mcomp": {fmt.Sprint(q.mcomp)}, "mcomm": {fmt.Sprint(q.mcomm)},
		}.Encode()
		q.body, err = json.Marshal(serve.Request{Platform: q.platform, N: q.n, MComp: q.mcomp, MComm: q.mcomm, Kernel: q.kernel})
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// start serves on a loopback listener and opens the client connections.
func (s *serveWL) start() error {
	var err error
	if s.oracle, err = calibrateOracle(s.seed); err != nil {
		return err
	}
	if s.reqs, err = genRequests(s.seed, requestPool); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.base = "http://" + s.addr
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ctx, ln) }()
	for i := 0; i < serveConns; i++ {
		s.conns = append(s.conns, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	// Open both keep-alive connections before anything is timed.
	for i, c := range s.conns {
		if err := s.check(s.reqs[i], s.send(c, s.reqs[i])); err != nil {
			return err
		}
	}
	return nil
}

type reply struct {
	code int
	body []byte
	err  error
}

// newRequest builds the HTTP request for q.
func (s *serveWL) newRequest(q request) (*http.Request, error) {
	if !q.post {
		return http.NewRequest(http.MethodGet, s.base+"/predict?"+q.query, nil)
	}
	req, err := http.NewRequest(http.MethodPost, s.base+"/predict", bytes.NewReader(q.body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

func (s *serveWL) send(c *http.Client, q request) reply {
	req, err := s.newRequest(q)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{code: resp.StatusCode, body: body, err: err}
}

// check compares a reply with the locally calibrated model. A refused
// request (429 included) is a failure.
func (s *serveWL) check(q request, rp reply) error {
	if rp.err != nil {
		return rp.err
	}
	if rp.code != http.StatusOK {
		return fmt.Errorf("serve: %s: status %d: %s", q.query, rp.code, bytes.TrimSpace(rp.body))
	}
	var got serve.Response
	if err := json.Unmarshal(rp.body, &got); err != nil {
		return fmt.Errorf("serve: decoding reply: %w", err)
	}
	want, err := s.oracle[key(q.platform, q.kernel)].Predict(q.n, model.Placement{Comp: topology.NodeID(q.mcomp), Comm: topology.NodeID(q.mcomm)})
	if err != nil {
		return err
	}
	if got.CompGBps != want.Comp || got.CommGBps != want.Comm {
		return fmt.Errorf("serve: %s: got comp=%v comm=%v, local calibration predicts comp=%v comm=%v",
			q.query, got.CompGBps, got.CommGBps, want.Comp, want.Comm)
	}
	return nil
}

// tally merges the outcomes of a loop's connections: requests sent,
// failures, and for the open loop each request's latency from its due
// time and the generator's send delay, indexed by request.
type tally struct {
	mu      sync.Mutex
	ops     int
	elapsed time.Duration
	lat     []float64 // ms
	late    []float64 // ms
	errs    []error
}

func (t *tally) add(ops int, errs []error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops += ops
	t.errs = append(t.errs, errs...)
}

func (t *tally) record(r *run) {
	r.attempted += int64(t.ops)
	for _, err := range t.errs {
		r.failed++
		r.problem("%v", err)
	}
}

// closedLoop keeps conns connections busy for d, each sending its next
// request once the previous reply is in.
func (s *serveWL) closedLoop(tr *tracer, conns int, d time.Duration) *tally {
	var t tally
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var errs []error
			n := 0
			for i := s.next + c; time.Now().Before(deadline); i += conns {
				q := s.reqs[i%len(s.reqs)]
				var rp reply
				tr.do("op.serve.request", tr.newOp(), 0, func(int) error { rp = s.send(s.conns[c], q); return rp.err })
				if err := s.check(q, rp); err != nil {
					errs = append(errs, err)
				}
				n++
			}
			t.add(n, errs)
		}()
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	s.next += t.ops
	return &t
}

// openLoop offers openRate requests/s for d regardless of replies, on
// two raw keep-alive connections with HTTP/1.1 pipelining, so that a
// send never waits for an earlier reply. The calling goroutine paces
// and writes the pre-encoded requests from its own thread; one reader
// per connection takes the replies in order. Each request is timed from
// when it was due, so a stall counts against every request queued
// behind it; late records how far each write trailed its due time.
func (s *serveWL) openLoop(d time.Duration) (*tally, error) {
	period := time.Second / openRate
	total := int(d / period)
	wire := make([][]byte, total)
	for i := range wire {
		var err error
		if wire[i], err = s.encodeRequest(s.reqs[(s.next+i)%len(s.reqs)]); err != nil {
			return nil, err
		}
	}
	conns := make([]net.Conn, serveConns)
	readers := make([]*bufio.Reader, serveConns)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for c := range conns {
		var err error
		if conns[c], err = net.Dial("tcp", s.addr); err != nil {
			return nil, err
		}
		readers[c] = bufio.NewReader(conns[c])
		// One round trip per connection before anything is timed.
		if _, err := conns[c].Write(wire[c]); err != nil {
			return nil, err
		}
		if err := s.check(s.reqs[(s.next+c)%len(s.reqs)], readReply(readers[c])); err != nil {
			return nil, err
		}
	}

	var t tally
	var wg sync.WaitGroup
	t0 := time.Now().Add(10 * time.Millisecond)
	// Indexed by request: each reader fills only its own connection's
	// entries, so the slice is time-ordered without a lock.
	lat := make([]float64, total)
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var errs []error
			for i := c; i < total; i += serveConns {
				rp := readReply(readers[c])
				lat[i] = float64(time.Since(t0.Add(time.Duration(i)*period))) / 1e6
				if err := s.check(s.reqs[(s.next+i)%len(s.reqs)], rp); err != nil {
					errs = append(errs, err)
					if rp.err != nil {
						// The connection is unusable: count the rest as failed.
						for j := i + serveConns; j < total; j += serveConns {
							errs = append(errs, rp.err)
						}
						break
					}
				}
			}
			t.add(0, errs)
		}()
	}
	late := make([]float64, 0, total)
	runtime.LockOSThread()
	preciseTimers()
	var werr error
	for i := 0; i < total && werr == nil; i++ {
		due := t0.Add(time.Duration(i) * period)
		paceUntil(due)
		late = append(late, float64(time.Since(due))/1e6)
		_, werr = conns[i%serveConns].Write(wire[i])
	}
	runtime.UnlockOSThread()
	if werr != nil {
		// Unblock the readers waiting for replies that will not come.
		for _, c := range conns {
			c.Close()
		}
	}
	wg.Wait()
	t.ops, t.lat, t.late = total, lat, late
	s.next += total
	return &t, werr
}

// encodeRequest renders one request in HTTP/1.1 wire format.
func (s *serveWL) encodeRequest(q request) ([]byte, error) {
	req, err := s.newRequest(q)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := req.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readReply reads the next pipelined reply of a connection.
func readReply(br *bufio.Reader) reply {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{code: resp.StatusCode, body: body, err: err}
}

// paceUntil waits for due: a precise sleep to just short of it, then a
// short spin, so that the generator's own lateness stays far below the
// latencies it measures.
func paceUntil(due time.Time) {
	const spin = 50 * time.Microsecond
	if d := time.Until(due) - spin; d > 0 {
		sleepPrecise(d)
	}
	for time.Now().Before(due) {
	}
}

// maxOpenBlocks caps the open-loop blocks one run may spend to collect
// rateBlocks valid ones.
const maxOpenBlocks = 2 * rateBlocks

func (s *serveWL) measure(r *run) error {
	if err := s.start(); err != nil {
		return err
	}
	// Rounds of a closed loop on one connection, one on two, and an
	// open-loop block, so that every phase samples the whole run. An
	// open-loop block whose generator fell behind measured the scheduler,
	// not the server: it is discarded and another block runs at the end.
	var one, two rates
	var alloc allocMeter
	var blocks, late [][]float64
	tried := 0
	for round := 0; len(blocks) < rateBlocks; round++ {
		if round < rateBlocks {
			t := s.closedLoop(nil, 1, r.budget(0.2)/rateBlocks)
			t.record(r)
			one.add(t.ops, float64(t.ops)/t.elapsed.Seconds(), 1)
			t = s.closedLoop(nil, serveConns, r.budget(0.2)/rateBlocks)
			t.record(r)
			two.add(t.ops, float64(t.ops)/t.elapsed.Seconds(), 1)
		}
		if tried == maxOpenBlocks {
			return fmt.Errorf("serve: the open-loop generator fell behind in %d of %d blocks", tried-len(blocks), tried)
		}
		tried++
		a := alloc
		a.begin()
		t, err := s.openLoop(r.budget(0.6) / rateBlocks)
		a.end()
		if err != nil {
			return err
		}
		t.record(r)
		if p90 := quantile(t.late, 0.9); p90 > float64(maxGenLate)/1e6 {
			r.note("serve: open-loop block %d discarded: generator p90 lateness %.3f ms > %v (p99 %.3f ms)", tried, p90, maxGenLate, quantile(t.late, 0.99))
			continue
		}
		alloc = a
		blocks = append(blocks, t.lat)
		late = append(late, t.late)
	}
	var allLate []float64
	ops := 0
	for i := range blocks {
		allLate = append(allLate, late[i]...)
		ops += len(blocks[i])
	}
	r.add(mOps, one.median(), unitRate, one.note("requests/s, closed loop, 1 connection"))
	r.latencies(blocks, 0.9, fmt.Sprintf("client latency from due time, open loop at %d req/s pipelined on %d connections", openRate, serveConns))
	r.add(mParOps, two.median(), unitRate, two.note(fmt.Sprintf("requests/s, closed loop, %d connections", serveConns)))
	r.allocPerOp(alloc, ops)
	r.note("serve: open-loop generator lateness p50 %.4f ms, p90 %.4f ms, p99 %.4f ms over %d requests in %d valid blocks of %d",
		median(allLate), quantile(allLate, 0.9), quantile(allLate, 0.99), len(allLate), len(blocks), tried)
	return nil
}

func (s *serveWL) loop(r *run, tr *tracer, d time.Duration) (int, error) {
	if s.stop == nil {
		if err := s.start(); err != nil {
			return 0, err
		}
	}
	t := s.closedLoop(tr, 1, d)
	t.record(r)
	return t.ops, nil
}

func (s *serveWL) close() {
	if s.stop == nil {
		return
	}
	s.stop()
	<-s.done
	s.stop = nil
	for _, c := range s.conns {
		c.CloseIdleConnections()
	}
	s.conns = nil
}
