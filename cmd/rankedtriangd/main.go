// Command rankedtriangd serves ranked enumeration of minimal
// triangulations over HTTP/JSON: clients submit a graph plus a cost
// function and stream minimal triangulations by increasing cost, paging
// through results with opaque resume tokens. See the package doc of
// repro/internal/service for the full API.
//
// Usage:
//
//	rankedtriangd -addr :8372
//
//	curl -s localhost:8372/v1/enumerate -d '{"graph6": "DqK", "cost": "fill", "page_size": 2}'
//	curl -s localhost:8372/v1/sessions/$TOKEN/next?page_size=2
//	curl -s localhost:8372/v1/stats
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// drain, live enumeration sessions are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // side listener only; the service handler uses its own mux
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8372", "listen address")
		cacheSize     = flag.Int("cache-size", 64, "solver pool capacity (initialized graphs kept hot)")
		maxSessions   = flag.Int("max-sessions", 256, "maximum live enumeration sessions")
		idleTimeout   = flag.Duration("idle-timeout", 5*time.Minute, "evict sessions idle longer than this")
		pageSize      = flag.Int("page-size", 10, "default results per page")
		concurrency   = flag.Int("concurrency", 8, "max requests admitted into solving at once")
		maxVertices   = flag.Int("max-vertices", 128, "reject graphs larger than this")
		maxBody       = flag.Int64("max-body", 16<<20, "request body byte cap (413 past it); batch deployments raise it")
		maxBatch      = flag.Int("max-batch", 256, "maximum problems one /v1/batch request may carry")
		initTimeout   = flag.Duration("init-timeout", 60*time.Second, "per-graph solver initialization budget")
		streamTimeout = flag.Duration("stream-timeout", 5*time.Minute, "total lifetime budget of one NDJSON stream")
		streamBudget  = flag.Int64("stream-budget", 64<<20, "byte budget for shared materialized result buffers (LRU-evicted past it)")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this side listener (e.g. localhost:6060); empty disables")
		backend       = flag.String("backend", "dp", "default enumeration backend: dp (ranked-exact), mis (unordered, no init cost) or auto (separator probe); overridable per request via ?backend=")
		probeBudget   = flag.Int("backend-probe-budget", core.DefaultProbeBudget, "separator budget the auto backend policy probes under before falling back to mis")
		orbits        = flag.Bool("orbits", false, "orbit-reduced enumeration by default: one representative per automorphism orbit, stamped with orbit_size; overridable per request via ?orbits=")
		drain         = flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	if _, err := core.ParseBackendKind(*backend); err != nil {
		log.Fatalf("rankedtriangd: -backend: %v", err)
	}

	svc := service.New(service.Config{
		CacheSize:          *cacheSize,
		MaxSessions:        *maxSessions,
		IdleTimeout:        *idleTimeout,
		PageSize:           *pageSize,
		MaxConcurrent:      *concurrency,
		MaxVertices:        *maxVertices,
		MaxBodyBytes:       *maxBody,
		MaxBatchItems:      *maxBatch,
		InitTimeout:        *initTimeout,
		StreamTimeout:      *streamTimeout,
		StreamBudgetBytes:  *streamBudget,
		DefaultBackend:     *backend,
		BackendProbeBudget: *probeBudget,
		DefaultOrbits:      *orbits,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		// The profiling endpoints live on a dedicated listener — typically
		// bound to localhost — so they are never reachable through the
		// public service port. net/http/pprof registers on the default mux,
		// which only this listener serves (the service has its own).
		go func() {
			log.Printf("rankedtriangd: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("rankedtriangd: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("rankedtriangd listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("rankedtriangd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("rankedtriangd: shutting down (draining up to %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("rankedtriangd: shutdown: %v", err)
	}
	svc.Close()
	log.Printf("rankedtriangd: bye")
}
