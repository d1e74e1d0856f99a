package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"time"
)

// failedResponse is the failure rule for every HTTP operation: a transport
// error or any status outside 2xx, including 429 (refused is not served).
func failedResponse(status int, err error) bool {
	return err != nil || status < 200 || status > 299
}

// spanHeader carries the client span ID to the server-side timing wrapper,
// so the handler's span nests under the request that caused it.
const spanHeader = "X-Perfbench-Span"

// newClient returns a client that holds at most one connection, so each
// load-generating goroutine is exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

// do sends one request and reads the whole body.
func do(c *http.Client, method, url string, body []byte, spanID int) ([]byte, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(spanID))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// timedHandler records a server-side span around every request h serves:
// the handler's own time, without transport or client queueing.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		name := "http.query.server"
		if r.Method == http.MethodPost {
			name = "http.step.server"
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(name, parent, start, time.Now())
	})
}

// sample is one open-loop request: when it was due, when the generator
// actually sent it, when the response was complete, and whether it failed.
type sample struct {
	due, sent, done time.Time
	failed          bool
}

// latency counts from the due time, so a stall that delays later requests
// is charged to them too.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind schedule the generator sent the request.
func (s sample) lateness() time.Duration { return s.sent.Sub(s.due) }

// clock lets tests drive the open loop on simulated time.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop issues request i at start + i·interval for every due time before
// end, on one connection: a request that falls due while the previous one
// is outstanding is sent as soon as it returns, late. send performs request
// i and reports whether it failed.
func openLoop(clk clock, start, end time.Time, interval time.Duration, send func(i int) bool) []sample {
	var out []sample
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return out
		}
		clk.SleepUntil(due)
		s := sample{due: due, sent: clk.Now()}
		s.failed = send(i)
		s.done = clk.Now()
		out = append(out, s)
	}
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
