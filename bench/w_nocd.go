package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/config"
	"chipletnoc/internal/durable"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/server"
)

// aiMini is a copy of examples/topologies/ai-mini.json: the benchmark
// carries its own inputs.
//
//go:embed ai-mini.json
var aiMini []byte

// nocdSizes sizes the nocd-mixed workload.
type nocdSizes struct {
	ai, serverCPU, custom, servingDocs int // the base set, plus one table5
	aiCycles, cpuCycles, customCycles  uint64
	servingCycles                      uint64
	warmPerClient                      int    // warm resubmissions per client per round
	burst                              int    // identical fresh submissions per coalesced burst
	longCycles                         uint64 // the two jobs in flight at the restart
	memBytes                           int64  // artifact memory tier: about half the base set's payloads
}

var nocdFull = nocdSizes{
	ai: 6, serverCPU: 6, custom: 3, servingDocs: 2,
	aiCycles: 2000, cpuCycles: 16000, customCycles: 8000, servingCycles: 20000,
	warmPerClient: 500, burst: 8, longCycles: 40000, memBytes: 6 << 10,
}

var nocdSmoke = nocdSizes{
	ai: 2, serverCPU: 1, custom: 1, servingDocs: 1,
	aiCycles: 1000, cpuCycles: 1000, customCycles: 1000, servingCycles: 1000,
	warmPerClient: 5, burst: 4, longCycles: 4000, memBytes: 2 << 10,
}

const nocdClients = 2

// nocdMixed drives an in-process nocd (one worker, sequential engine,
// on-disk state directory, a two-tier artifact store whose memory tier
// holds about half the working set) over real HTTP, closed loop, two
// clients, 1 ms status poll. Set-up boots the daemon and fills the cache
// with the base set (cold). Each round then submits two fresh jobs
// (cold), resubmits base jobs drawn Zipf(1.1) from the seed (warm: every
// one must be a cache hit with the cold bytes), and fires one burst of
// identical fresh submissions (coalesced: exactly one run). After the
// timed section the daemon is shut down with two long jobs in flight and
// restarted on the same state directory; their results must equal
// uninterrupted runs. One op is one such round; a request is submit,
// poll, result.
// The server, artifact, durable and config layers do most of the work.
type nocdMixed struct {
	sz       nocdSizes
	seed     uint64
	stateDir string
	store    *artifact.Store
	srv      *server.Server
	ts       *httptest.Server
	client   *http.Client
	base     []*nocdJob
	rounds   int
	fresh    uint64 // fresh jobs issued so far; the next one simulates this many cycles more
	puts     uint64 // runs that populated a store that has since been closed
	// baseBytes is what the base set's results occupy in the store.
	baseBytes int64

	mu                           sync.Mutex
	coldMS, warmMS, burstMS      []float64
	submitUS, resultUS, pollsJob []float64
	coalesced                    int
	requests                     int
	roundWall                    time.Duration
}

// nocdJob is one submission and, once it has run cold, its result.
type nocdJob struct {
	body   []byte
	format string
	cold   []byte
}

func newNocdMixed(e *env) workload {
	n := &nocdMixed{sz: nocdFull}
	if e.smoke() {
		n.sz = nocdSmoke
	}
	return n
}

// simJob is a quick-scale simulation. Only the two jobs of the restart
// phase checkpoint as they run (checkpointEvery > 0): a rolling
// checkpoint costs every member of its flight two fsynced files, and on
// this sandbox's disk an fsync's price drifts threefold over minutes, so
// with checkpoints in the timed section the op's time was the disk's,
// not the daemon's. What is left per fresh job is its admission record
// and its cache entry. The cycle counts in nocdSizes are ones at which a
// run costs the same whatever its seed (a quick AI die run much longer
// than 2000 cycles settles into a congestion regime the seed picks, and
// costs up to twice as much in one as in another).
func simJob(topology string, cycles, seed, checkpointEvery uint64) *nocdJob {
	body := fmt.Sprintf(`{"sim":{"topology":%q,"scale":"quick","cycles":%d,"seed":%d,"checkpoint_every":%d}}`, topology, cycles, seed, checkpointEvery)
	return &nocdJob{body: []byte(body), format: "csv"}
}

func customJob(cycles, seed uint64) (*nocdJob, error) {
	var doc map[string]any
	if err := json.Unmarshal(aiMini, &doc); err != nil {
		return nil, err
	}
	doc["seed"] = seed
	cfg, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(map[string]any{"sim": map[string]any{"topology": "custom", "cycles": cycles, "config": string(cfg)}})
	if err != nil {
		return nil, err
	}
	return &nocdJob{body: body, format: "csv"}, nil
}

// interleave reorders jobs, given as consecutive groups of the given
// sizes, round-robin over the groups.
func interleave(jobs []*nocdJob, sizes ...int) []*nocdJob {
	var groups [][]*nocdJob
	for _, n := range sizes {
		groups = append(groups, jobs[:n])
		jobs = jobs[n:]
	}
	var out []*nocdJob
	for more := true; more; {
		more = false
		for g := range groups {
			if len(groups[g]) > 0 {
				out = append(out, groups[g][0])
				groups[g] = groups[g][1:]
				more = true
			}
		}
	}
	return out
}

// boot opens the store and the daemon on the workload's state directory
// and puts it behind an HTTP listener on the loopback interface.
func (n *nocdMixed) boot() error {
	store, err := artifact.Open(artifact.Config{Dir: filepath.Join(n.stateDir, "cache"), MemBytes: n.sz.memBytes})
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Workers: 1, QueueDepth: 64, StateDir: filepath.Join(n.stateDir, "jobs"), Cache: store})
	if err != nil {
		return err
	}
	n.store, n.srv = store, srv
	n.ts = httptest.NewServer(srv.Handler())
	return nil
}

func (n *nocdMixed) Setup(e *env) error {
	n.seed = e.seed
	experiments.SetSimPartitions(1)
	dir, err := os.MkdirTemp(e.workDir, "nocd-")
	if err != nil {
		return err
	}
	n.stateDir = dir
	n.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * nocdClients}}
	if err := n.boot(); err != nil {
		return err
	}

	// The base set: every spec carries a seed derived from --seed.
	stream := uint64(0)
	next := func() uint64 { stream++; return derive(e.seed, stream) >> 16 }
	for i := 0; i < n.sz.ai; i++ {
		n.base = append(n.base, simJob("ai-processor", n.sz.aiCycles, next(), 0))
	}
	for i := 0; i < n.sz.serverCPU; i++ {
		n.base = append(n.base, simJob("server-cpu", n.sz.cpuCycles, next(), 0))
	}
	for i := 0; i < n.sz.custom; i++ {
		j, err := customJob(n.sz.customCycles, next())
		if err != nil {
			return err
		}
		n.base = append(n.base, j)
	}
	for i := 0; i < n.sz.servingDocs; i++ {
		body := fmt.Sprintf(`{"kind":"serving","scale":"quick","serving":{"seed":%d,"loads":[2,8],"cycles":%d}}`, next(), n.sz.servingCycles)
		n.base = append(n.base, &nocdJob{body: []byte(body), format: "csv"})
	}
	n.base = append(n.base, &nocdJob{body: []byte(`{"experiment":"table5","scale":"quick"}`), format: "text"})
	// Zipf rank r is base job r, and the base set below interleaves its
	// kinds, so which kind of job is popular does not change with the
	// seed; what the seed changes is every job's content and the draws.
	n.base = interleave(n.base, n.sz.ai, n.sz.serverCPU, n.sz.custom, n.sz.servingDocs, 1)

	// Cold fill: the clients split the base set.
	cold := newRecorder()
	n.clients(func(lane int) {
		for i := lane; i < len(n.base); i += nocdClients {
			j := n.base[i]
			res := n.request(e, cold, lane, -1, j)
			if cold.check(res.err == nil, "cold fill job %d: %v", i, res.err) {
				cold.check(res.disposition == "miss", "cold fill job %d answered %q, want miss", i, res.disposition)
				j.cold = res.body
			}
		}
	})
	if cold.failed > 0 {
		return fmt.Errorf("cold fill: %v", cold.failures)
	}
	n.baseBytes = n.store.Stats().DiskBytes
	return nil
}

// clients runs fn once per client, concurrently, and waits for all.
func (n *nocdMixed) clients(fn func(lane int)) {
	var wg sync.WaitGroup
	for lane := 0; lane < nocdClients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			fn(lane)
		}(lane)
	}
	wg.Wait()
}

// nocdResult is one client request as the client saw it.
type nocdResult struct {
	id          string
	body        []byte
	disposition string // X-Nocd-Cache of the submission
	polls       int
	submit      time.Duration
	fetch       time.Duration
	total       time.Duration
	err         error
}

type jobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

func (n *nocdMixed) do(method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// submit posts a job and returns its id, status and cache disposition.
func (n *nocdMixed) submit(e *env, parent, op, lane int, j *nocdJob) (st jobStatus, disposition string, d time.Duration, err error) {
	d = e.tr.do("POST /jobs", "server", parent, op, lane, func() {
		var resp *http.Response
		var data []byte
		if resp, data, err = n.do("POST", n.ts.URL+"/jobs", j.body); err != nil {
			return
		}
		if resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, data)
			return
		}
		disposition = resp.Header.Get("X-Nocd-Cache")
		err = json.Unmarshal(data, &st)
	})
	return
}

// await polls a job every millisecond until it is done, then fetches
// its result.
func (n *nocdMixed) await(e *env, parent, op, lane int, st jobStatus, format string) (body []byte, polls int, fetch time.Duration, err error) {
	deadline := time.Now().Add(60 * time.Second)
	for st.Status != "done" {
		if st.Status == "failed" || st.Status == "canceled" {
			return nil, polls, 0, fmt.Errorf("job %s %s: %s", st.ID, st.Status, st.Error)
		}
		if time.Now().After(deadline) {
			return nil, polls, 0, fmt.Errorf("job %s still %s after 60 s", st.ID, st.Status)
		}
		time.Sleep(time.Millisecond)
		polls++
		e.tr.do("GET /jobs/{id}", "server", parent, op, lane, func() {
			var data []byte
			if _, data, err = n.do("GET", n.ts.URL+"/jobs/"+st.ID, nil); err == nil {
				err = json.Unmarshal(data, &st)
			}
		})
		if err != nil {
			return nil, polls, 0, err
		}
	}
	fetch = e.tr.do("GET /jobs/{id}/result", "server", parent, op, lane, func() {
		var resp *http.Response
		if resp, body, err = n.do("GET", n.ts.URL+"/jobs/"+st.ID+"/result?format="+format, nil); err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, body)
		}
	})
	return
}

// request is one closed-loop client operation: submit, poll, fetch.
func (n *nocdMixed) request(e *env, r *recorder, lane, op int, j *nocdJob) nocdResult {
	var res nocdResult
	root := e.tr.begin("nocd.request", "bench", -1, op, lane)
	start := time.Now()
	var st jobStatus
	st, res.disposition, res.submit, res.err = n.submit(e, root, op, lane, j)
	if res.err == nil {
		res.id = st.ID
		res.body, res.polls, res.fetch, res.err = n.await(e, root, op, lane, st, j.format)
	}
	res.total = time.Since(start)
	e.tr.end(root)
	return res
}

// freshJob returns a sim job no earlier submission shares a key with.
// Every fresh job has the same seed, derived from --seed, and the k-th
// runs k cycles longer than the first: a new key each time, at a cost
// that differs by less than a thousandth per job, so a step does the
// same work in every round and its fastest round is a fair minimum.
func (n *nocdMixed) freshJob(topology string, cycles, checkpointEvery uint64) *nocdJob {
	n.fresh++
	return simJob(topology, cycles+n.fresh, derive(n.seed, 5000)>>16, checkpointEvery)
}

func (n *nocdMixed) Round(e *env, r *recorder) {
	round := n.rounds
	n.rounds++
	start := time.Now()

	// Cold: one fresh job per client, an AI die and a server CPU.
	var fresh [nocdClients]*nocdJob
	for lane := range fresh {
		fresh[lane] = n.freshJob([]string{"ai-processor", "server-cpu"}[lane%2], []uint64{n.sz.aiCycles, n.sz.cpuCycles}[lane%2], 0)
	}
	phase := time.Now()
	n.clients(func(lane int) {
		res := n.request(e, r, lane, round, fresh[lane])
		if r.check(res.err == nil, "round %d cold: %v", round, res.err) {
			r.check(res.disposition == "miss" && len(res.body) > 0, "round %d cold: answered %q with %d bytes", round, res.disposition, len(res.body))
		}
		r.request(res.total)
		n.mu.Lock()
		n.coldMS = append(n.coldMS, ms(res.total))
		n.pollsJob = append(n.pollsJob, float64(res.polls))
		n.mu.Unlock()
	})

	r.step("cold", time.Since(phase))

	// Warm: resubmissions of base jobs, Zipf-distributed from the seed;
	// each client makes the same draws in every round.
	phase = time.Now()
	n.clients(func(lane int) {
		draws := newZipf(newRNG(derive(n.seed, 2000+uint64(lane))), len(n.base), 1.1)
		for k := 0; k < n.sz.warmPerClient; k++ {
			i := draws.next()
			j := n.base[i]
			res := n.request(e, r, lane, round, j)
			if r.check(res.err == nil, "round %d warm job %d: %v", round, i, res.err) {
				r.check(res.disposition == "hit", "round %d warm job %d answered %q, want hit", round, i, res.disposition)
				r.check(bytes.Equal(res.body, j.cold), "round %d warm job %d: bytes differ from its cold result", round, i)
			}
			r.request(res.total)
			n.mu.Lock()
			n.warmMS = append(n.warmMS, ms(res.total))
			n.submitUS = append(n.submitUS, us(res.submit))
			n.resultUS = append(n.resultUS, us(res.fetch))
			n.mu.Unlock()
		}
	})

	r.step("warm", time.Since(phase))

	// Coalesced: one burst of identical fresh submissions, all sent
	// before any result is awaited; exactly one run may happen.
	j := n.freshJob("ai-processor", n.sz.aiCycles, 0)
	before := n.store.Stats().Puts
	burstStart := time.Now()
	var bodies [][]byte
	n.clients(func(lane int) {
		type sent struct {
			st    jobStatus
			start time.Time
		}
		var mine []sent
		for k := 0; k < n.sz.burst/nocdClients; k++ {
			t0 := time.Now()
			st, disposition, _, err := n.submit(e, -1, round, lane, j)
			if !r.check(err == nil, "round %d burst submit: %v", round, err) {
				continue
			}
			if disposition == "coalesced" {
				n.mu.Lock()
				n.coalesced++
				n.mu.Unlock()
			}
			mine = append(mine, sent{st, t0})
		}
		for _, s := range mine {
			body, _, _, err := n.await(e, -1, round, lane, s.st, j.format)
			r.check(err == nil, "round %d burst member %s: %v", round, s.st.ID, err)
			r.request(time.Since(s.start))
			n.mu.Lock()
			bodies = append(bodies, body)
			n.mu.Unlock()
		}
	})
	burst := time.Since(burstStart)
	r.step("burst", burst)
	r.check(len(bodies) == n.sz.burst, "round %d burst: %d results, want %d", round, len(bodies), n.sz.burst)
	for _, b := range bodies {
		r.check(len(b) > 0 && bytes.Equal(b, bodies[0]), "round %d burst: members' results differ", round)
	}
	runs := n.store.Stats().Puts - before
	r.check(runs == 1, "round %d burst caused %d runs, want 1", round, runs)

	requests := nocdClients + nocdClients*n.sz.warmPerClient + n.sz.burst
	r.round(time.Since(start), float64(requests))
	n.mu.Lock()
	n.burstMS = append(n.burstMS, ms(burst))
	n.requests += requests
	n.roundWall += time.Since(start)
	n.mu.Unlock()
}

func (n *nocdMixed) Finish(e *env, r *recorder) {
	// Cache and phase numbers, before the restart disturbs the store.
	st := n.store.Stats()
	r.set("server.cache_hits", float64(st.Hits))
	r.set("server.cache_misses", float64(st.Misses))
	r.set("server.coalesced", float64(n.coalesced))
	r.set("artifact.evictions", float64(st.Evicted))
	if n.baseBytes > 0 {
		// Memory-tier bytes in use against what the base set occupies:
		// the tier is sized to hold about half of the warm working set.
		r.set("artifact.mem_resident_share", float64(st.MemBytes)/float64(n.baseBytes))
	}
	r.set("nocd.cold_ms_p50", median(n.coldMS))
	r.set("nocd.cold_ms_p75", percentile(n.coldMS, 75))
	r.set("nocd.warm_ms_p50", median(n.warmMS))
	r.set("nocd.warm_ms_p99", percentile(n.warmMS, 99))
	r.set("nocd.coalesced_ms_p50", median(n.burstMS))
	r.set("server.submit_us", median(n.submitUS))
	r.set("server.result_get_us", median(n.resultUS))
	r.set("server.polls_per_job", median(n.pollsJob))
	if n.roundWall > 0 {
		r.set("nocd.jobs_per_s", float64(n.requests)/seconds(n.roundWall))
	}

	// Restart: shut down with two long jobs in flight (one running, one
	// queued behind it), boot a new daemon on the same state directory.
	long := []*nocdJob{
		n.freshJob("ai-processor", n.sz.longCycles, n.sz.longCycles/4),
		n.freshJob("ai-processor", n.sz.longCycles, n.sz.longCycles/4),
	}
	var sts []jobStatus
	for _, j := range long {
		st, _, _, err := n.submit(e, -1, -1, 0, j)
		if !r.check(err == nil, "restart: submit: %v", err) {
			return
		}
		sts = append(sts, st)
	}
	// Wait until the worker has picked the first one up.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, data, err := n.do("GET", n.ts.URL+"/jobs/"+sts[0].ID, nil); err == nil {
			var st jobStatus
			if json.Unmarshal(data, &st) == nil && st.Status != "queued" {
				break
			}
		}
	}
	time.Sleep(5 * time.Millisecond)
	r.set("server.shutdown_ms", ms(e.tr.do("server.Shutdown", "server", -1, -1, 0, n.srv.Shutdown)))
	n.ts.Close()
	n.puts += n.store.Stats().Puts
	var err error
	r.set("server.recover_ms", ms(e.tr.do("server.New[recover]", "server", -1, -1, 0, func() { err = n.boot() })))
	if !r.check(err == nil, "restart: boot on the same state directory: %v", err) {
		n.ts = nil
		return
	}
	for i, st := range sts {
		st.Status = "" // unknown to the new daemon's client until polled
		body, _, _, err := n.await(e, -1, -1, 0, st, "csv")
		if !r.check(err == nil, "restart: job %s: %v", st.ID, err) {
			continue
		}
		spec, perr := server.ParseJobSpec(long[i].body)
		if !r.check(perr == nil, "restart: reference spec: %v", perr) {
			continue
		}
		ref, rerr := experiments.RunSim(*spec.Sim, nil, nil)
		if r.check(rerr == nil, "restart: uninterrupted reference run: %v", rerr) {
			r.check(string(body) == ref.CSV(), "restart: job %s differs from the uninterrupted run", st.ID)
		}
	}
	runs := n.puts + n.store.Stats().Puts
	want := uint64(len(n.base) + n.rounds*(nocdClients+1) + len(long))
	r.set("server.runs", float64(runs))
	r.check(runs == want, "the daemon ran %d simulations, want %d (base set + fresh jobs + one per burst + restarted)", runs, want)

	// The simulated statistics: every base job's cold result.
	for i, j := range n.base {
		r.setSim(fmt.Sprintf("base-%02d", i), string(j.cold))
	}
}

func (n *nocdMixed) Probe(e *env, r *recorder) {
	custom, err := customJob(n.sz.customCycles, 7)
	if !r.check(err == nil, "probe: custom job: %v", err) {
		return
	}
	spec, err := server.ParseJobSpec(custom.body)
	if !r.check(err == nil, "probe: parse: %v", err) {
		return
	}
	r.set("server.parse_us", us(perCall(200, func(int) { server.ParseJobSpec(custom.body) })))
	r.set("server.jobkey_us", us(perCall(200, func(int) { server.JobKey(spec) })))
	r.set("experiments.normalize_us", us(perCall(200, func(int) { spec.Sim.Normalize() })))
	baseSpec, err := server.ParseJobSpec(n.base[0].body)
	if r.check(err == nil, "probe: base spec: %v", err) {
		key, _ := server.JobKey(baseSpec)
		if payload, ok := n.store.Get(key); r.check(ok, "probe: base job 0 is not in the store") {
			r.set("server.decode_cached_us", us(perCall(500, func(int) { server.DecodeCachedResult(payload) })))
		}
	}
	r.set("config.parse_build_ms", ms(medianOf(10, func() time.Duration {
		return e.tr.do("config.Parse+Build", "config", -1, -1, 0, func() {
			cfg, err := config.Parse(aiMini)
			if err == nil {
				_, err = cfg.Build()
			}
			r.check(err == nil, "probe: ai-mini: %v", err)
		})
	})))

	// The artifact store alone: write-through puts, memory-tier gets,
	// and disk-tier gets (sealed read and CRC check) from a reopened
	// store whose memory tier is empty. This sandbox's disk.
	dir := filepath.Join(e.workDir, "probe-cache")
	payload := bytes.Repeat([]byte("chipletnoc"), 410) // about 4 KiB
	const keys = 32
	key := func(i int) string { return fmt.Sprintf("%064x", i+1) }
	store, err := artifact.Open(artifact.Config{Dir: dir, MemBytes: 1 << 20})
	if !r.check(err == nil, "probe: artifact.Open: %v", err) {
		return
	}
	r.set("artifact.put_us", us(perCall(keys, func(i int) {
		e.tr.do("artifact.Put", "artifact", -1, -1, 0, func() { r.check(store.Put(key(i), payload) == nil, "probe: Put failed") })
	})))
	r.set("artifact.get_mem_us", us(perCall(keys*64, func(i int) { store.Get(key(i % keys)) })))
	cold, err := artifact.Open(artifact.Config{Dir: dir, MemBytes: 1 << 20})
	if r.check(err == nil, "probe: artifact.Open again: %v", err) {
		r.set("artifact.get_disk_us", us(perCall(keys, func(i int) {
			e.tr.do("artifact.Get[disk]", "artifact", -1, -1, 0, func() {
				_, ok := cold.Get(key(i))
				r.check(ok, "probe: disk-tier Get missed")
			})
		})))
	}
	for _, sz := range []struct {
		name string
		n    int
		reps int
	}{{"durable.writefile_us.4k", 4 << 10, 15}, {"durable.writefile_us.4m", 4 << 20, 5}} {
		data := bytes.Repeat([]byte{0x5a}, sz.n)
		path := filepath.Join(e.workDir, "probe-durable")
		r.set(sz.name, us(medianOf(sz.reps, func() time.Duration {
			return e.tr.do("durable.WriteFile", "durable", -1, -1, 0, func() {
				r.check(durable.WriteFile(path, data, 0o644) == nil, "probe: durable.WriteFile failed")
			})
		})))
	}
}

func (n *nocdMixed) Close() {
	if n.ts != nil {
		n.ts.Close()
	}
	if n.srv != nil {
		n.srv.Shutdown()
	}
	if n.client != nil {
		n.client.CloseIdleConnections()
	}
	os.RemoveAll(n.stateDir)
}
