package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"spm/internal/core"
	"spm/internal/obs"
	"spm/internal/service"
)

// newClient is an HTTP client holding at most one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// submitHTTP posts one check and waits on the job's event stream for its
// done event — the CI caller's closed loop. It returns the terminal
// status, the submit reply and the POST round trip. The two calls are
// traced as children of parent.
func submitHTTP(ctx context.Context, c *http.Client, base string, req service.CheckRequest, tr *tracer, parent int, reqID string) (*service.JobStatus, *service.SubmitResponse, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, 0, err
	}
	post := tr.begin("POST /v2/check", reqID, parent)
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v2/check", bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(hreq)
	if err != nil {
		return nil, nil, 0, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ack := time.Since(t0)
	tr.end(post)
	if err != nil {
		return nil, nil, ack, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, nil, ack, fmt.Errorf("POST /v2/check: %d %s", resp.StatusCode, strings.TrimSpace(string(payload)))
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(payload, &sub); err != nil {
		return nil, nil, ack, fmt.Errorf("POST /v2/check reply: %w", err)
	}
	events := tr.begin("GET /v2/jobs/{id}/events", reqID, parent)
	st, err := awaitDone(ctx, c, base, sub.ID)
	tr.end(events)
	return st, &sub, ack, err
}

// awaitDone reads /v2/jobs/{id}/events until the done event.
func awaitDone(ctx context.Context, c *http.Client, base, id string) (*service.JobStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v2/jobs/"+id+"/events?interval_ms=60000", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET events %s: %d %s", id, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("event stream of %s ended without done", id)
			}
			return nil, err
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var st service.JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return nil, fmt.Errorf("done event of %s: %w", id, err)
			}
			// Drain so the connection goes back to the pool.
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return nil, err
			}
			if st.State != service.StateDone {
				return &st, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
			return &st, nil
		}
	}
}

// scrape reads a node's /v2/metrics and sums every sample by name.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v2/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing %s/v2/metrics: %w", base, err)
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// delta subtracts two scrapes.
func delta(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// fromMetrics fills the runner and sweep counters from a /v2/metrics
// delta of nodes whose sweeps ran on the given number of workers.
func (lw *layerWindow) fromMetrics(m map[string]float64, workers int) {
	lw.exec = core.ExecCounts{
		BatchStrides:   int64(m["spm_batch_strides_total"]),
		BatchLanes:     int64(m["spm_batch_lanes_total"]),
		BatchDiverged:  int64(m["spm_batch_diverged_total"]),
		StackFull:      int64(m["spm_stack_full_total"]),
		StackReplays:   int64(m["spm_stack_replays_total"]),
		StackConstants: int64(m["spm_stack_constants_total"]),
		StackRowHits:   int64(m["spm_stack_rowhits_total"]),
	}
	lw.busy = seconds(m["spm_sweep_chunk_seconds_sum"])
	lw.tuples = int64(m["spm_sweep_tuples_total"])
	lw.workers = workers
}
