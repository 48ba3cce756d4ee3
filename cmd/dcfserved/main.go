// Command dcfserved is the sweep daemon: sim-as-a-service over the
// internal/serve core. It accepts JSON job specs on /jobs, fans them
// into (scenario, seed) cells on a worker pool with per-tenant fair
// scheduling, and keeps every promise on disk — kill -9 it mid-sweep,
// restart it over the same -data directory, and the artifacts come out
// byte-for-byte identical.
//
//	dcfserved -addr 127.0.0.1:8457 -data ./serve-data
//	curl -s localhost:8457/healthz
//	macsim -submit http://127.0.0.1:8457 -seeds 5 -pm 80
//
// SIGTERM/SIGINT drain gracefully: submissions get 503, /readyz flips,
// in-flight cells finish and reach their journal checkpoints, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dcfguard/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dcfserved:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8457", "listen address")
		data     = flag.String("data", "serve-data", "data directory (specs, journals, artifacts)")
		workers  = flag.Int("workers", 0, "cell worker pool size (0 = GOMAXPROCS)")
		queueCap = flag.Int("queue", 1024, "max outstanding cells; beyond it submissions get 429 + Retry-After")
		retries  = flag.Int("retries", 3, "total attempts per cell for a timeout or a refused journal write, which go back to the queue's tail; a panic or setup error fails at once (1 = no retries)")
		breakerK = flag.Int("breaker", 3, "park a job as degraded after K consecutive panicking cells (<=0 disables)")
		seedTO   = flag.Duration("seedtimeout", 2*time.Minute, "wall-time watchdog per cell (0 disables)")
		retain   = flag.Int("retain", 0, "keep only the N most recently finished jobs (table and disk); 0 keeps everything, live jobs are never touched")
	)
	flag.Parse()

	opts := serve.Options{
		DataDir:     *data,
		Workers:     *workers,
		QueueCap:    *queueCap,
		Attempts:    max(*retries, 1),
		BreakerK:    *breakerK,
		SeedTimeout: *seedTO,
		Retain:      *retain,
	}
	if *breakerK <= 0 {
		opts.BreakerK = -1
	}
	s, err := serve.NewServer(opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	log.Printf("dcfserved: serving on http://%s (data %s, %d recovered jobs)",
		ln.Addr(), *data, len(s.Statuses()))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case sig := <-sigc:
		log.Printf("dcfserved: %v: draining (in-flight cells checkpoint, then exit)", sig)
		s.Shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		log.Printf("dcfserved: drained")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
