package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// newClient returns an HTTP client keeping one connection per load client
// alive, so the loop measures requests rather than TCP handshakes.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}
}

// reply is one completed request as the loop saw it.
type reply struct {
	client, seq int
	status      int
	body        []byte
	err         error
}

// closedLoop runs clients that each send their next request only after
// the previous reply, in whole rounds of ndocs requests, until the
// deadline. Request seq of client cl carries document (cl+seq) % ndocs,
// whose bytes body(cl, seq) returns; check is called on every reply from
// the client's own goroutine. Latency is measured from just before the
// request is sent to the last body byte.
func closedLoop(w *window, deadline time.Time, c *http.Client, url string, clients, ndocs int,
	body func(client, seq int) []byte, check func(r *reply)) {
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for seq := 0; seq%ndocs != 0 || time.Now().Before(deadline); seq++ {
				doc := body(cl, seq)
				t0 := time.Now()
				r := &reply{client: cl, seq: seq}
				r.status, r.body, r.err = post(c, url, doc)
				w.record(time.Since(t0), cl, (cl+seq)%ndocs)
				check(r)
			}
		}(cl)
	}
	wg.Wait()
}

// post sends one JSON document and returns the status and body.
func post(c *http.Client, url string, doc []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(doc))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs must be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// statusErr describes a non-200 reply for diagnostics.
func statusErr(r *reply) error {
	if r.err != nil {
		return r.err
	}
	return fmt.Errorf("HTTP %d: %.200s", r.status, r.body)
}
