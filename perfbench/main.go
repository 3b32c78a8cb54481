// Command perfbench is the repository benchmark. It runs the whole
// deployment in one process — a cmd/ossrv-default node (internal/nodehost)
// behind the consistent-hash router (internal/router), each on a loopback
// listener — drives it with a closed loop of two clients for a fixed time,
// checks the answers, and prints every metric by name with its unit.
//
//	go run . --workload search-hot --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same op stream twice, untraced and then traced, and prints the
// per-layer metrics, the unattributed remainder and the tracing overhead.
// The last line of standard output is one JSON object. Any correctness
// failure exits non-zero without printing numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"sizelos/internal/datagen"
	"sizelos/internal/relational"
	"sizelos/internal/tenancy"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fl.Int64("seed", 1, "op-stream seed")
	seconds := fl.Int("seconds", 25, "measured seconds per pass")
	trace := fl.Int("trace", 0, "1: traced run printing per-layer metrics")
	workdir := fl.String("workdir", ".bench_build", "directory for scratch data dirs and span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames, ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := bench{workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, tmp: tmp}
	var out result
	if *trace == 0 {
		out, err = b.endToEnd(stdout)
	} else {
		out, err = b.traced(stdout, filepath.Join(*workdir, "trace-"+*workload+".jsonl"))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", *workload, *seed, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run, in report order.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"search_p50_ms", "ms"},
	{"ranked_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

// untracedDefs are the client metrics the traced run reports from its
// untraced pass. The mutate metrics exist on write-mix only, and a bounded
// end-to-end metric must be measured on every workload. The p99s swing up
// to 2x between runs on a shared 2-vCPU VM (hypervisor steal, the WAL's
// fsync tail): too much to bound.
var untracedDefs = []metricDef{
	{"search_p99_ms", "ms"}, {"ranked_p99_ms", "ms"},
	{"mutate_p50_ms", "ms"}, {"mutate_p99_ms", "ms"},
	{"write_amp", "B/B"},
}

// overheadOf names the client metrics whose tracing overhead is reported.
var overheadOf = []string{"ops_per_s", "search_p50_ms", "ranked_p50_ms", "mutate_p50_ms", "heap_mb"}

// layerDefs are the metrics of a traced run, in report order.
var layerDefs = []metricDef{
	{"router.self_us_p50", "us"}, {"router.self_us_p99", "us"},
	{"tenancy.handler_us_p50", "us"}, {"tenancy.resp_kb_per_op", "KB"},
	{"qos.refused", "count"},
	{"searchexec.cache_hit_ratio", "ratio"},
	{"searchexec.pool_wait_ms_per_op", "ms"}, {"searchexec.pool_waited_frac", "ratio"},
	{"engine.summaries_per_op", "count"}, {"engine.summaries_per_result", "ratio"},
	{"keyword.stream_us_per_op", "us"}, {"keyword.matches_per_op", "count"},
	{"keyword.apply_us_per_batch", "us"},
	{"ostree.gen_us_per_summary", "us"}, {"ostree.tree_nodes_per_summary", "count"},
	{"ostree.render_us_per_summary", "us"},
	{"sizel.top-path_us_per_summary", "us"}, {"sizel.bottom-up_us_per_summary", "us"},
	{"sizel.dp_us_per_summary", "us"},
	{"relational.apply_us_per_batch", "us"},
	{"datagraph.apply_us_per_batch", "us"}, {"datagraph.folds", "count"},
	{"rank.rerank_ms_p50", "ms"}, {"rank.updates_per_rerank", "count"}, {"rank.fallback_frac", "ratio"},
	{"durable.append_us_p50", "us"}, {"durable.bytes_per_ack", "B"},
	{"runtime.alloc_kb_per_op", "KB"}, {"runtime.gc_cpu_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"overhead.ops_per_s", "1/s"},
	{"overhead.search_p50_ms", "ms"}, {"overhead.ranked_p50_ms", "ms"},
	{"overhead.mutate_p50_ms", "ms"}, {"overhead.heap_mb", "MB"},
	{"search_p99_ms", "ms"}, {"ranked_p99_ms", "ms"},
	{"mutate_p50_ms", "ms"}, {"mutate_p99_ms", "ms"},
	{"write_amp", "B/B"},
	{"prop.ranked_over_k_share", "ratio"}, {"prop.rerank_batch_share", "ratio"},
	{"prop.distinct_keys", "count"},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// newResult builds the result of a run that passed every check. A failed
// or refused op fails the run, so failed is always 0.
func newResult(defs []metricDef, vals map[string]float64, attempted int) result {
	r := result{Correct: true, Attempted: attempted, Metrics: make(map[string]metricJSON, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricJSON{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

// setupBoots is how many times an untraced run boots the deployment; the
// median boot is setup_s.
const setupBoots = 15

type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	tmp      string
	passes   int
}

func (b *bench) endToEnd(w io.Writer) (result, error) {
	p, err := b.pass(nil, setupBoots)
	if err != nil {
		return result{}, err
	}
	vals := p.clientMetrics()
	for _, d := range endToEndDefs {
		if !(vals[d.name] > 0) {
			return result{}, fmt.Errorf("%s is %v: the run measured nothing it stands for", d.name, vals[d.name])
		}
	}
	p.report(w, b, "untraced")
	printMetrics(w, endToEndDefs, vals)
	return newResult(endToEndDefs, vals, p.attempted()), nil
}

// traced runs the op stream for half the time untraced, then for half the
// time traced, and replays the traced pass's ops layer by layer.
func (b *bench) traced(w io.Writer, spanFile string) (result, error) {
	b.dur /= 2
	base, err := b.pass(nil, 1)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	p, err := b.pass(tr, 1)
	if err != nil {
		return result{}, err
	}
	if err := tr.write(spanFile); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	vals := p.layers(tr.all())
	// Runtime counters come from the untraced pass: the tracer allocates.
	baseVals := base.clientMetrics()
	vals["runtime.alloc_kb_per_op"] = ratio(float64(base.allocBytes)/1024, float64(base.attempted()))
	vals["runtime.gc_cpu_frac"] = base.gcFrac
	for _, d := range untracedDefs {
		vals[d.name] = baseVals[d.name]
	}
	tracedVals := p.clientMetrics()
	for _, name := range overheadOf {
		vals["overhead."+name] = tracedVals[name] - baseVals[name]
	}
	p.report(w, b, "traced")
	fmt.Fprintf(w, "spans: %d written to %s\n", len(tr.all()), spanFile)
	printMetrics(w, layerDefs, vals)
	return newResult(layerDefs, vals, p.attempted()), nil
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// passResult is one boot-run-verify cycle.
type passResult struct {
	setup      []float64 // seconds per boot
	ld         *load
	before     map[string]tenancy.StatsResponse
	after      map[string]tenancy.StatsResponse
	heapMB     float64
	allocBytes uint64
	gcFrac     float64
	dirGrowth  int64
	props      props
	tuples     map[string]map[string]int
	poolSize   int
	rr         readReplay
	wr         writeReplay
}

// pass boots the deployment (several times when measuring set-up), runs
// the load, takes the metrics, and then, off the clock, checks the
// ledger, reopens the data dir, compares sampled pages with a reference
// and — when traced — replays the ops layer by layer.
func (b *bench) pass(tr *tracer, boots int) (*passResult, error) {
	b.passes++
	defs := tenantDefs(b.workload)
	names := tenantNames(defs)
	p := &passResult{}
	var d *deployment
	cfg := serverConfig("")
	for i := 0; i < boots; i++ {
		cfg = serverConfig(filepath.Join(b.tmp, fmt.Sprintf("data-%d-%d", b.passes, i)))
		runtime.GC() // each boot starts from a collected heap
		t0 := time.Now()
		dep, err := boot(cfg, defs, tr)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if i < boots-1 {
			dep.close()
			if err := os.RemoveAll(cfg.DataDir); err != nil {
				return nil, err
			}
			continue
		}
		d = dep
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()

	scfg := streamConfig{Workload: b.workload, Seed: b.seed}
	p.tuples = make(map[string]map[string]int)
	for _, name := range names {
		t, _ := d.node.Registry.Get(name)
		p.tuples[name] = relationSizes(t.Engine.DB())
	}
	if c, ok := p.tuples["tpch"]["Customer"]; ok {
		scfg.Customers = c
	}
	if b.workload == writeMix {
		dc := datagen.DefaultDBLPConfig()
		dc.Seed = cfg.Seed
		shadow, err := datagen.GenerateDBLP(dc)
		if err != nil {
			return nil, err
		}
		scfg.Shadow = shadow
	}
	p.poolSize = d.node.Registry.Pool().Stats().Size

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var (
		dirBefore int64
		rt0       runtimeCounters
		err       error
	)
	mark := func() error {
		rt0 = readRuntime()
		var err error
		if p.before, err = scrape(hc, d.base, names); err != nil {
			return err
		}
		dirBefore, err = dirBytes(cfg.DataDir)
		return err
	}
	if p.ld, err = runLoad(d, hc, scfg, b.dur, tr, mark); err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	p.allocBytes = rt1.allocBytes - rt0.allocBytes
	p.gcFrac = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	if p.after, err = scrape(hc, d.base, names); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	dirAfter, err := dirBytes(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	p.dirGrowth = dirAfter - dirBefore

	// Off the clock from here on.
	if p.props, err = properties(d.node.Registry, p.ld.Reads); err != nil {
		return nil, err
	}
	if err := checkLedger(httpGetter(hc, d.base), "dblp", p.ld.Tokens, "through the router"); err != nil {
		return nil, err
	}
	if tr != nil {
		budget := b.dur / 2 // per replay: the traced run lasts about 1.5 × --seconds
		if p.rr, err = replayReads(tr, d.node.Registry, p.ld.Reads, budget, cfg.CacheBudget); err != nil {
			return nil, fmt.Errorf("read replay: %w", err)
		}
		if p.wr, err = replayWrites(tr, p.ld.Acks, budget, filepath.Join(b.tmp, fmt.Sprintf("replay-%d", b.passes))); err != nil {
			return nil, fmt.Errorf("write replay: %w", err)
		}
	}
	d.close()
	d = nil
	if err := checkReopened(cfg, defs, "dblp", p.ld.Tokens); err != nil {
		return nil, err
	}
	if err := checkPages(defs, p.ld.Checks, p.ld.Acks); err != nil {
		return nil, err
	}
	return p, nil
}

func relationSizes(db *relational.DB) map[string]int {
	out := make(map[string]int, len(db.Relations))
	for _, r := range db.Relations {
		out[r.Name] = r.Len()
	}
	return out
}

type runtimeCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

func (p *passResult) attempted() int {
	n := 0
	for _, s := range p.ld.Samples {
		n += len(s)
	}
	return n
}

// windows splits the measured time for the throughput and latency metrics:
// each is the median of its per-window values, so a disturbance confined
// to one window (a GC storm, a noisy neighbour) barely moves it.
const windows = 5

// latencies returns the sorted latencies (ms) of the ops of one kind, overall and per window; ops finishing after the measured time
// belong to no window.
func (p *passResult) latencies(kind string) (all []float64, perWindow [windows][]float64) {
	k := kindIndex(kind)
	var ds []time.Duration
	var wins [windows][]time.Duration
	for _, ss := range p.ld.Samples {
		for _, s := range ss {
			if s.Kind != k {
				continue
			}
			ds = append(ds, s.Lat)
			if w := int(s.Done * windows / p.ld.Dur); w < windows {
				wins[w] = append(wins[w], s.Lat)
			}
		}
	}
	for w := range wins {
		perWindow[w] = sortedMs(wins[w])
	}
	return sortedMs(ds), perWindow
}

// windowStat is the median over the non-empty windows of a statistic of
// each window's sorted latencies.
func windowStat(perWindow [windows][]float64, stat func([]float64) float64) float64 {
	var vals []float64
	for _, lat := range perWindow {
		if len(lat) > 0 {
			vals = append(vals, stat(lat))
		}
	}
	return median(sortedCopy(vals))
}

// windowTail is windowStat of the p-th percentile, with the lowest
// percentile a window had to fall back to.
func windowTail(perWindow [windows][]float64, p float64) (value, used float64) {
	used = p
	value = windowStat(perWindow, func(lat []float64) float64 {
		v, u := tail(lat, p)
		used = min(used, u)
		return v
	})
	return value, used
}

// opsPerSecond is the median over windows of the ops completed in each
// window, per second.
func (p *passResult) opsPerSecond() float64 {
	var counts [windows]float64
	for _, ss := range p.ld.Samples {
		for _, s := range ss {
			if w := int(s.Done * windows / p.ld.Dur); w < windows {
				counts[w]++
			}
		}
	}
	rates := make([]float64, windows)
	for w, c := range counts {
		rates[w] = c / (p.ld.Dur.Seconds() / windows)
	}
	return median(sortedCopy(rates))
}

// clientMetrics are the metrics the clients measure: the end-to-end ones
// and untracedDefs.
func (p *passResult) clientMetrics() map[string]float64 {
	v := map[string]float64{
		"setup_s":   median(sortedCopy(p.setup)),
		"ops_per_s": p.opsPerSecond(),
		"heap_mb":   p.heapMB,
		"write_amp": ratio(float64(p.dirGrowth), float64(p.ld.Payload)),
	}
	for _, kind := range kinds {
		_, perWindow := p.latencies(kind)
		v[kind+"_p50_ms"] = windowStat(perWindow, median)
		v[kind+"_p99_ms"], _ = windowTail(perWindow, 99)
	}
	return v
}

// statsDelta sums the stats counters that moved during the load.
type statsDelta struct {
	hits, misses, waited, waitNs, refused float64
}

func (p *passResult) delta() statsDelta {
	var d statsDelta
	for name, a := range p.after {
		b := p.before[name]
		d.hits += float64(a.Cache.Hits - b.Cache.Hits)
		d.misses += float64(a.Cache.Misses - b.Cache.Misses)
		d.refused += float64(refused(a) - refused(b))
		// The pool is shared by every tenant: count it once.
		d.waited = float64(a.Pool.Waited - b.Pool.Waited)
		d.waitNs = float64(a.Pool.WaitNanos - b.Pool.WaitNanos)
	}
	return d
}

func (p *passResult) reads() (ops, results, bytes float64) {
	mutate := kindIndex(kindMutate)
	for _, ss := range p.ld.Samples {
		for _, s := range ss {
			bytes += float64(s.Bytes)
			if s.Kind != mutate {
				ops++
				results += float64(s.Results)
			}
		}
	}
	return ops, results, bytes
}

// layers computes the per-layer metrics of a traced pass.
func (p *passResult) layers(spans []span) map[string]float64 {
	v := make(map[string]float64)
	self := selfTimes(spans)
	var routerSelf, nodeDur []float64
	var clientTotal, clientSelf float64
	for _, s := range spans {
		if s.Start < p.ld.TraceStart && (s.Name == "router" || s.Name == "node" || s.Name == "client") {
			continue // warm-up
		}
		switch s.Name {
		case "router":
			routerSelf = append(routerSelf, float64(self[s.ID])/1e3)
		case "node":
			nodeDur = append(nodeDur, float64(s.dur())/1e3)
		case "client":
			clientTotal += float64(s.dur())
			clientSelf += float64(self[s.ID])
		}
	}
	routerSelf, nodeDur = sortedCopy(routerSelf), sortedCopy(nodeDur)
	v["router.self_us_p50"] = median(routerSelf)
	v["router.self_us_p99"], _ = tail(routerSelf, 99)
	v["tenancy.handler_us_p50"] = median(nodeDur)
	v["trace.unattributed_frac"] = ratio(clientSelf, clientTotal)

	readOps, results, bytes := p.reads()
	d := p.delta()
	v["tenancy.resp_kb_per_op"] = ratio(bytes/1024, float64(p.attempted()))
	v["qos.refused"] = d.refused
	v["searchexec.cache_hit_ratio"] = ratio(d.hits, d.hits+d.misses)
	v["searchexec.pool_wait_ms_per_op"] = ratio(d.waitNs/1e6, readOps)
	v["searchexec.pool_waited_frac"] = ratio(d.waited, d.misses)
	v["engine.summaries_per_op"] = ratio(d.misses, readOps)
	v["engine.summaries_per_result"] = ratio(d.misses, results)

	rr := p.rr
	v["keyword.stream_us_per_op"] = ratio(float64(rr.StreamNs)/1e3, float64(rr.Ops))
	v["keyword.matches_per_op"] = ratio(float64(rr.Matches), float64(rr.Ops))
	v["ostree.gen_us_per_summary"] = ratio(float64(rr.GenNs)/1e3, float64(rr.Summaries))
	v["ostree.tree_nodes_per_summary"] = ratio(float64(rr.Nodes), float64(rr.Summaries))
	v["ostree.render_us_per_summary"] = ratio(float64(rr.RenderNs)/1e3, float64(rr.Summaries))
	for _, algo := range algorithms {
		v["sizel."+algo+"_us_per_summary"] = ratio(float64(rr.AlgoNs[algo])/1e3, float64(rr.AlgoN[algo]))
	}

	wr := p.wr
	n := float64(wr.Batches)
	v["relational.apply_us_per_batch"] = ratio(float64(wr.RelNs)/1e3, n)
	v["keyword.apply_us_per_batch"] = ratio(float64(wr.KeywordNs)/1e3, n)
	v["datagraph.apply_us_per_batch"] = ratio(float64(wr.GraphNs)/1e3, n)
	v["datagraph.folds"] = float64(p.ld.Folds)
	v["rank.rerank_ms_p50"] = median(sortedCopy(wr.RerankMs))
	v["durable.append_us_p50"] = median(sortedCopy(wr.DurableUs))
	v["durable.bytes_per_ack"] = ratio(float64(p.dirGrowth), float64(p.ld.MeasuredAcks))

	var reranks, updates, fallbacks, settingRuns float64
	for _, a := range p.ld.Acks {
		if a.Reranked {
			reranks++
			updates += float64(a.Updates)
			fallbacks += float64(a.Fallback)
			settingRuns += float64(a.Settings)
		}
	}
	v["rank.updates_per_rerank"] = ratio(updates, reranks)
	v["rank.fallback_frac"] = ratio(fallbacks, settingRuns)

	v["prop.ranked_over_k_share"] = ratio(float64(p.props.RankedOverK), float64(p.props.Ranked))
	v["prop.rerank_batch_share"] = ratio(reranks, float64(len(p.ld.Acks)))
	v["prop.distinct_keys"] = float64(p.props.DistinctKeys)
	return v
}

// report prints the reproducibility record, the workload properties and
// the sample counts behind every percentile.
func (p *passResult) report(w io.Writer, b *bench, mode string) {
	fmt.Fprintf(w, "perfbench %s (%s): seed %d, closed loop of %d clients, %s warm-up then %s measured, op-stream digest %s\n",
		b.workload, mode, b.seed, nClients, warmup, b.dur, p.ld.Digest)
	fmt.Fprintf(w, "record: nproc %d, GOMAXPROCS %d, %s, cache %d entries per tenant, pool %d, "+
		"WAL fsync before every ack, snapshot interval %s (no snapshot during the run), dataset seed %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), serverConfig("").CacheBudget, p.poolSize,
		serverConfig("").SnapshotInterval.Std(), serverConfig("").Seed)
	tenants := make([]string, 0, len(p.tuples))
	for name := range p.tuples {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		rels := make([]string, 0, len(p.tuples[name]))
		for rel, n := range p.tuples[name] {
			rels = append(rels, fmt.Sprintf("%s=%d", rel, n))
		}
		sort.Strings(rels)
		fmt.Fprintf(w, "record: tenant %s tuples %s\n", name, strings.Join(rels, " "))
	}
	d := p.delta()
	var reranks int
	for _, a := range p.ld.Acks {
		if a.Reranked {
			reranks++
		}
	}
	fmt.Fprintf(w, "properties: cache-hit share %.4f; ranked reads with more candidates than k %d/%d; "+
		"re-ranked batches %d/%d; distinct summary keys %d vs cache capacity %d per tenant (over the first %d reads)\n",
		ratio(d.hits, d.hits+d.misses), p.props.RankedOverK, p.props.Ranked, reranks, len(p.ld.Acks),
		p.props.DistinctKeys, serverConfig("").CacheBudget, p.props.Reads)
	for _, kind := range kinds {
		all, perWindow := p.latencies(kind)
		p99, used := windowTail(perWindow, 99)
		fmt.Fprintf(w, "%s: n=%d; medians over %d windows: p50 %.4f ms, p99 %.4f ms (lowest percentile a window supported: %.2f); whole run: p50 %.4f ms\n",
			kind, len(all), windows, windowStat(perWindow, median), p99, used, median(all))
	}
	fmt.Fprintf(w, "errors: none of %d attempted ops failed or was refused (error_frac 0); %d writes acked, "+
		"ledger and reopen checks passed; %d pages checked, sampled from %d reads\n",
		p.attempted(), len(p.ld.Tokens), len(p.ld.Checks), p.ld.offered)
	if len(p.ld.Tokens) > 0 {
		lastAcks := 0
		for _, c := range p.ld.Checks {
			lastAcks = max(lastAcks, c.Acks)
		}
		fmt.Fprintf(w, "the latest page checked followed %d acked batches\n", lastAcks)
	}
	if p.ld.FoldAcks != nil {
		fmt.Fprintf(w, "graph overlay folded after acked batches %v\n", p.ld.FoldAcks)
	}
	fmt.Fprintf(w, "set-up: %d boots, seconds %v\n", len(p.setup), p.setup)
}
