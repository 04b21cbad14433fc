package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// --- wire API: the benchmark's own structs, so the HTTP surface is the seam --

type solveRequest struct {
	Problem     string `json:"problem"`
	N           int    `json:"n,omitempty"`
	Scale       int    `json:"scale,omitempty"`
	Method      string `json:"method"`
	Ranks       int    `json:"ranks,omitempty"`
	RHSSeed     uint64 `json:"rhs_seed,omitempty"`
	IncludeX    bool   `json:"include_x,omitempty"`
	JobKey      string `json:"job_key,omitempty"`
	TraceParent string `json:"traceparent,omitempty"`
}

// jobStatus is the reply to POST /v1/solve and, with the fields both carry,
// the terminal "result" event of a job's NDJSON stream.
type jobStatus struct {
	ID         string    `json:"id"`
	Job        string    `json:"job"`  // events name the job here
	Type       string    `json:"type"` // events only
	State      string    `json:"state"`
	Converged  bool      `json:"converged"`
	Error      string    `json:"error"`
	XHash      string    `json:"x_hash"`
	X          []float64 `json:"x"`
	BatchWidth int       `json:"batch_width"`
}

type traceSpan struct {
	SpanID      string `json:"span_id"`
	ParentID    string `json:"parent_id"`
	Name        string `json:"name"`
	Service     string `json:"service"`
	StartUnixNS int64  `json:"start_unix_ns"`
	EndUnixNS   int64  `json:"end_unix_ns"`
}

type flightDump struct {
	Jobs []struct {
		Job   string      `json:"job"`
		Spans []traceSpan `json:"spans"`
	} `json:"jobs"`
	DroppedJobs int64 `json:"dropped_jobs"`
}

// --- the client -----------------------------------------------------------------

const (
	retryBudget = 3 // resubmissions after a 429 before the job counts as failed
	retryCap    = time.Second
)

// client is one closed-loop HTTP caller with a keep-alive connection.
type client struct {
	hc      *http.Client
	retries int
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out (when non-nil).
func (c *client) do(method, url string, body []byte, out any) (http.Header, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.Header, resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.Header, resp.StatusCode, fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return resp.Header, resp.StatusCode, nil
}

// solve posts one job to base/v1/solve and waits for its reply, resubmitting
// after a 429 within the retry budget.
func (c *client) solve(base string, r solveRequest) (jobStatus, http.Header, error) {
	body, _ := json.Marshal(r)
	for try := 0; ; try++ {
		var st jobStatus
		hdr, code, err := c.do(http.MethodPost, base+"/v1/solve", body, &st)
		switch {
		case err != nil:
			return st, hdr, err
		case code == http.StatusTooManyRequests && try < retryBudget:
			c.retries++
			wait := retryCap
			if s, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && time.Duration(s)*time.Second < wait {
				wait = time.Duration(s) * time.Second
			}
			time.Sleep(wait)
		case code != http.StatusOK:
			return st, hdr, fmt.Errorf("POST /v1/solve: HTTP %d", code)
		default:
			return st, hdr, nil
		}
	}
}

// submit posts one job to /v1/jobs and returns its id.
func (c *client) submit(base string, r solveRequest) (string, error) {
	body, _ := json.Marshal(r)
	var st jobStatus
	_, code, err := c.do(http.MethodPost, base+"/v1/jobs", body, &st)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/jobs: HTTP %d", code)
	}
	return st.ID, nil
}

// await reads a job's NDJSON event stream to its terminal result event.
func (c *client) await(base, id string) (jobStatus, error) {
	resp, err := c.hc.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobStatus{}, fmt.Errorf("GET events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	for sc.Scan() {
		var ev jobStatus
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return jobStatus{}, fmt.Errorf("event stream %s: %w", id, err)
		}
		if ev.Type == "result" {
			ev.ID = ev.Job
			return ev, nil
		}
	}
	return jobStatus{}, fmt.Errorf("event stream %s ended without a result: %v", id, sc.Err())
}

func (c *client) get(url string, out any) (int, error) {
	_, code, err := c.do(http.MethodGet, url, nil, out)
	return code, err
}

// scrape reads a Prometheus text page into name{labels} → value.
func (c *client) scrape(url string) (map[string]float64, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}
