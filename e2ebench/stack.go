package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/machine"
)

// appTTL keeps every registration alive for the whole run: the
// benchmark sends no heartbeats, and evictions would make runs depend
// on host speed.
const appTTL = time.Hour

// coopd is one in-process coopd member serving over loopback HTTP.
type coopd struct {
	srv  *ctrlplane.Server
	hs   *http.Server
	url  string
	host string // "127.0.0.1:port", the partition fabric's key
	done chan struct{}
}

// startCoopd boots a coopd for m on an ephemeral loopback port; its
// handler carries server-side spans when tracing.
func startCoopd(m *machine.Machine, tr *tracer) (*coopd, error) {
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: m, DefaultTTL: appTTL})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := traceHandler(tr, "coopd.handler.", coopdRoute, srv.Handler())
	c := &coopd{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		url:  "http://" + ln.Addr().String(),
		host: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		c.hs.Serve(ln)
	}()
	return c, nil
}

// close stops the server and waits for its serve loop to return.
func (c *coopd) close() {
	c.hs.Close()
	<-c.done
	c.srv.Close()
}

// serve runs h on an ephemeral loopback port until the returned stop
// function is called; stop waits for the serve loop to return.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// newTransport returns a loopback transport that keeps enough idle
// connections for every member, so steady-state requests never redial.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
}

// newCoopdClient builds a single-attempt coopd client: a failed
// request is the benchmark's to count, not the client's to retry.
func newCoopdClient(url string, rt http.RoundTripper) *client.Client {
	return client.New(url, client.Config{
		HTTPClient:     &http.Client{Transport: rt},
		MaxAttempts:    1,
		RequestTimeout: 10 * time.Second,
	})
}

// checkTableI registers the paper's Table I mix (three memory-bound
// apps at AI 0.5, one compute-bound app at AI 10) on a fresh coopd for
// the paper 4x8 machine and checks that the served optimum is the
// paper's 254 GFLOPS.
func checkTableI(ctx context.Context) error {
	c, err := startCoopd(machine.PaperModel(), nil)
	if err != nil {
		return err
	}
	defer c.close()
	tr := newTransport()
	defer tr.CloseIdleConnections()
	cli := newCoopdClient(c.url, tr)
	for i, ai := range []float64{0.5, 0.5, 0.5, 10} {
		if _, err := cli.Register(ctx, ctrlplane.RegisterRequest{Name: fmt.Sprintf("tableI-%d", i), AI: ai}); err != nil {
			return fmt.Errorf("table I: %w", err)
		}
	}
	alloc, err := cli.Allocations(ctx)
	if err != nil {
		return fmt.Errorf("table I: %w", err)
	}
	if math.Abs(alloc.TotalGFLOPS-254) > 1e-9 {
		return fmt.Errorf("table I mix solved to %.6f GFLOPS, want 254", alloc.TotalGFLOPS)
	}
	return nil
}

// errCheck marks a failed correctness check: the run is reported as
// incorrect, not as a failed op.
type errCheck struct{ msg string }

func (e *errCheck) Error() string { return "check failed: " + e.msg }

func checkFailf(format string, args ...any) error {
	return &errCheck{msg: fmt.Sprintf(format, args...)}
}

func isCheck(err error) bool {
	var c *errCheck
	return errors.As(err, &c)
}
