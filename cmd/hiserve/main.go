// Command hiserve runs the multi-tenant design-as-a-service daemon:
// every POST /v1/design is a personalized Human Intranet design problem
// (body geometry scale, channel deviations, battery state, reliability
// floor) solved by Algorithm 1 over one shared evaluation engine, so
// similar users share warm simulation results.
//
// Usage:
//
//	hiserve -addr :8080
//	hiserve -addr :8080 -workers 8 -shards 64 -cachemb 64 -cachefile /var/lib/hiserve.bin
//	curl -d '{"body_scale": 1.1, "pdr_min": 0.95}' localhost:8080/v1/design
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hiopt/internal/cli"
	"hiopt/internal/serve"
)

// Connection timeouts of the daemon's HTTP server, so a slow or stalled
// client cannot hold a connection open indefinitely: the request header
// must arrive within readHeaderTimeout and the whole request (a JSON body
// of at most 64 KiB) within readTimeout, and an idle keep-alive
// connection is closed after idleTimeout. readTimeout bounds reading the
// request only, not the handler: once the handler has read the body to
// EOF, net/http clears the connection's read deadline before it starts
// watching for a client disconnect, so a solve running past readTimeout
// keeps a live request context (TestLongHandlerOutlivesReadTimeout pins
// this). There is deliberately no write timeout: an NDJSON design stream
// legitimately runs for minutes.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the daemon's HTTP server for h on addr.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	c := cli.New(flag.CommandLine, "hiserve")
	c.CacheBudget(serve.DefaultCacheBytes / (1 << 20))
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
		capacity  = flag.Int("capacity", 0, "admission capacity in nominal-request units (0 = 2 x workers)")
		maxQueue  = flag.Int("maxqueue", 0, "admission wait-queue bound; beyond it requests get 429 (0 = 8 x capacity)")
		robustWt  = flag.Int("robustweight", 0, "admission weight of a gamma-robust request (0 = 4)")
		drainWait = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window")
	)
	c.Parse(os.Args[1:])

	// The daemon serves every fidelity from one cache file, so the file
	// carries serve.CacheSig rather than a run's fidelity signature.
	eng := c.Start(serve.CacheSig, *workers)
	s, err := serve.New(serve.Config{
		Engine:       eng,
		Capacity:     *capacity,
		MaxQueue:     *maxQueue,
		RobustWeight: *robustWt,
	})
	c.Check(err)

	srv := newServer(*addr, s)
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Printf("hiserve: listening on %s (%d workers, %d shards)\n", *addr, eng.Workers(), eng.Shards())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		c.Check(err)
	case sig := <-sigc:
		fmt.Printf("hiserve: %s, draining (up to %s)\n", sig, *drainWait)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "hiserve: shutdown:", err)
	}
	c.Close()
}
