package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sizelos/internal/tenancy"
)

// sample is one completed operation as the client saw it, kept compact
// because a run retains up to keepSamples of them.
type sample struct {
	Lat     time.Duration
	Done    time.Duration // completion, since the load started
	Bytes   int32
	Results int32
	Kind    uint8 // index into kinds
}

var kinds = []string{kindSearch, kindRanked, kindMutate}

func kindIndex(kind string) uint8 {
	for i, k := range kinds {
		if k == kind {
			return uint8(i)
		}
	}
	panic("unknown op kind " + kind)
}

// ackRec is one acknowledged mutation, in acknowledgement order.
type ackRec struct {
	Op       op
	Reranked bool
	Updates  int // node-score updates over every setting
	Fallback int // settings whose residual repair fell back
	Settings int
}

// pageCheck is a sampled read whose body is compared with a reference
// engine's page. Acks counts the write-mix batches acknowledged before it.
type pageCheck struct {
	Op   op
	Body []byte
	Acks int
}

// Bounds on what a run retains, so the retained client data — which the
// heap metric sees — does not grow with the speed of the system.
const (
	keepSamples = 1 << 18 // per client, preallocated
	keepReads   = 3000    // leading read ops kept for replay and properties
	keepAcks    = 3000    // leading acked mutations kept for replay
	maxChecks   = 40      // sampled pages compared with the reference
)

// warmup runs the load unmeasured before the measured time, so caches
// fill, the heap grows to its working size and lazy set-up finishes.
const warmup = 5 * time.Second

// load is everything one closed-loop run observed. Samples, Payload,
// MeasuredAcks and Folds cover the measured time only; the ledger, the
// kept ops and the page checks cover the warm-up too.
type load struct {
	Dur          time.Duration // the measured time; ops in flight finish after it
	Samples      [nClients][]sample
	Acks         []ackRec
	Tokens       []string // every acknowledged ledger token
	Payload      int64    // bytes of mutation bodies acknowledged in the measured time
	MeasuredAcks int
	Reads        []op
	Checks       []pageCheck
	offered      int // reads the page checks were sampled from
	Digest       string
	Folds        int   // drops of the write tenant's graph overlay (traced runs)
	FoldAcks     []int // acked batches before each drop, warm-up included
	TraceStart   int64 // tracer time at which the measured time began
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: nClients,
			MaxConnsPerHost:     nClients,
			DisableCompression:  true,
		},
	}
}

// runLoad drives nClients closed-loop clients through the router for the
// warm-up and then for dur, calling mark as the measured time begins. Each
// client sends its next op only after the previous reply.
func runLoad(d *deployment, hc *http.Client, cfg streamConfig, dur time.Duration, tr *tracer, mark func() error) (*load, error) {
	ld := &load{Dur: dur}
	for i := range ld.Samples {
		ld.Samples[i] = make([]sample, 0, keepSamples)
	}
	var (
		mu      sync.Mutex // guards the shared fields of ld below
		wg      sync.WaitGroup
		errs    [nClients]error
		digest  = newStreamDigest()
		patched = -1
		stop    atomic.Bool // set when a client fails: the run is void
		// checkRng draws the page checks; guarded by mu.
		checkRng = rand.New(rand.NewSource(cfg.Seed*7 + 17))
	)
	start := time.Now().Add(warmup)
	deadline := start.Add(dur)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := newStream(cfg, c)
			acks := 0
			for time.Now().Before(deadline) && !stop.Load() {
				o := st.next()
				digest.add(&o)
				s, body, err := issue(hc, d.base, &o, tr)
				if err != nil {
					errs[c] = err
					stop.Store(true)
					return
				}
				s.Done = time.Since(start)
				measured := s.Done >= 0
				if measured {
					ld.Samples[c] = append(ld.Samples[c], s)
				}
				if o.Kind != kindMutate {
					// Write-mix reads are checked only on the writing client,
					// whose reads see a state fixed by its own acked batches,
					// and only while the reference can replay those batches.
					checkable := cfg.Workload != writeMix || (c == 0 && acks < keepAcks)
					mu.Lock()
					if len(ld.Reads) < keepReads {
						ld.Reads = append(ld.Reads, o)
					}
					if checkable {
						ld.sampleCheck(checkRng, pageCheck{Op: o, Body: body, Acks: acks})
					}
					mu.Unlock()
					continue
				}
				if err := st.acked(&o); err != nil {
					errs[c] = fmt.Errorf("apply acked batch to the client shadow: %w", err)
					stop.Store(true)
					return
				}
				acks++
				rec, err := ackRecord(o, body)
				if err != nil {
					errs[c] = err
					stop.Store(true)
					return
				}
				mu.Lock()
				if len(ld.Acks) < keepAcks {
					ld.Acks = append(ld.Acks, rec)
				}
				ld.Tokens = append(ld.Tokens, o.Token)
				if measured {
					ld.Payload += int64(len(o.Body))
					ld.MeasuredAcks++
				}
				if tr != nil {
					// Folding the overlay shows as a drop in Patched. Only
					// this client writes the tenant, so no Mutate runs now.
					t, _ := d.node.Registry.Get(o.Tenant)
					p := t.Engine.Graph().Patched()
					if p < patched {
						ld.FoldAcks = append(ld.FoldAcks, acks)
						if measured {
							ld.Folds++
						}
					}
					patched = p
				}
				mu.Unlock()
			}
		}(c)
	}
	time.Sleep(time.Until(start))
	if tr != nil {
		ld.TraceStart = tr.now()
	}
	markErr := mark()
	wg.Wait()
	if markErr != nil {
		return nil, markErr
	}
	ld.Digest = digest.sum()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ld, nil
}

// sampleCheck offers a read to the page checks. Reservoir sampling keeps
// a uniform sample of maxChecks over every read offered, so the checks
// reach the late states of a run too. The caller holds the lock.
func (ld *load) sampleCheck(rng *rand.Rand, c pageCheck) {
	ld.offered++
	if len(ld.Checks) < maxChecks {
		ld.Checks = append(ld.Checks, c)
		return
	}
	if j := rng.Intn(ld.offered); j < maxChecks {
		ld.Checks[j] = c
	}
}

// issue sends one op and reads the whole reply. A transport error or any
// status but 200 is an error: the deployment configures no QoS and moves
// no tenant, so a correct run neither fails nor refuses an op.
func issue(hc *http.Client, base string, o *op, tr *tracer) (sample, []byte, error) {
	method, body := http.MethodGet, io.Reader(nil)
	target := base + o.path()
	if o.Kind == kindMutate {
		method, body = http.MethodPost, bytes.NewReader(o.Body)
		target = base + "/v1/" + o.Tenant + "/tuples"
	}
	req, err := http.NewRequest(method, target, body)
	if err != nil {
		return sample{}, nil, err
	}
	var sp span
	if tr != nil {
		sp = tr.begin("client", o.ID, 0)
		req.Header.Set(hdrOp, strconv.FormatInt(o.ID, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(sp.ID, 10))
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close() // the body has been read
	}
	s := sample{Kind: kindIndex(o.Kind), Lat: time.Since(t0)}
	if tr != nil {
		tr.finish(sp)
	}
	if err != nil {
		return s, nil, fmt.Errorf("%s %s: %w", method, target, err)
	}
	if resp.StatusCode != http.StatusOK {
		return s, nil, fmt.Errorf("%s %s: status %d: %.200s", method, target, resp.StatusCode, data)
	}
	s.Bytes = int32(len(data))
	if o.Kind != kindMutate {
		s.Results = int32(resultCount(data))
	}
	return s, data, nil
}

// resultCount reads the "count" field of a search reply without decoding
// the summaries.
func resultCount(body []byte) int {
	i := bytes.Index(body, []byte(`"count":`))
	if i < 0 {
		return 0
	}
	rest := body[i+len(`"count":`):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(string(rest[:j])) // digits only: cannot fail
	return n
}

// ackRecord pulls the re-rank telemetry out of a mutate reply.
func ackRecord(o op, body []byte) (ackRec, error) {
	var resp tenancy.MutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return ackRec{}, fmt.Errorf("decode mutate reply: %w", err)
	}
	rec := ackRec{Op: o, Reranked: resp.Reranked, Settings: len(resp.RerankStats)}
	for _, st := range resp.RerankStats {
		rec.Updates += st.Updates
		if st.Fallback {
			rec.Fallback++
		}
	}
	return rec, nil
}
