// Command pliant-served is the shadow-scheduler daemon: a long-running
// serving layer that holds named scheduling sessions open — each advanced
// faster-than-real-time — behind an HTTP API (stdlib net/http only).
//
// Usage:
//
//	pliant-served                         # listen on :8077
//	pliant-served -addr 127.0.0.1:9090    # custom listen address
//	pliant-served -max-sessions 4         # bound concurrently live sessions
//	pliant-served -pprof 127.0.0.1:6060   # runtime profiles on a second listener
//	pliant-served -version                # print the build identity
//
// Quickstart (see README.md for the full tour):
//
//	curl -s -X POST localhost:8077/v1/sessions -d '{"policies":["telemetry","first-fit"],"pace_ms":250}'
//	curl -s -X POST localhost:8077/v1/sessions/s1/jobs -d '{"jobs":["canneal"]}'
//	curl -N localhost:8077/v1/sessions/s1/events
//	curl -s localhost:8077/metrics
//
// SIGINT/SIGTERM drains gracefully: no new sessions, every running session
// finalizes (truncated if short of its horizon), then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	pliant "github.com/approx-sched/pliant"
)

func main() {
	var (
		addr        = flag.String("addr", ":8077", "listen address")
		maxSessions = flag.Int("max-sessions", 0, "bound on concurrently live sessions (0 = default 16)")
		showVer     = flag.Bool("version", false, "print the build identity and exit")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address, apart from the API (off when empty)")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(pliant.Version())
		return
	}

	srv := pliant.NewServeServer(pliant.ServeOptions{
		MaxSessions: *maxSessions,
		Version:     pliant.Version(),
	})
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// Profiles get their own listener and mux: the API handler never
		// routes /debug/pprof/, so exposing the API exposes no profiles.
		// Bound first, so its address is logged before the API's.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pliant-served: pprof: %v\n", err)
			os.Exit(1)
		}
		ps := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		defer ps.Close()
		go func() { _ = ps.Serve(pln) }()
		fmt.Fprintf(os.Stderr, "pliant-served: pprof on %s\n", pln.Addr())
	}

	// Bind before serving so the logged address is the real one — with
	// -addr :0 the kernel picks the port, and scripts (the CI smoke test)
	// read it from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pliant-served: %v\n", err)
		os.Exit(1)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "pliant-served: listening on %s\n", ln.Addr())

	select {
	case <-ctx.Done():
		// Graceful drain: finalize sessions first so in-flight SSE streams
		// see their terminal frames, then close the listener.
		fmt.Fprintln(os.Stderr, "pliant-served: draining")
		srv.Drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "pliant-served: shutdown: %v\n", err)
			os.Exit(1)
		}
		<-errCh // ListenAndServe has returned http.ErrServerClosed
		fmt.Fprintln(os.Stderr, "pliant-served: drained")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "pliant-served: %v\n", err)
			os.Exit(1)
		}
	}
}

// pprofMux serves the runtime profiles (heap, goroutine, CPU, trace, ...)
// under /debug/pprof/ and nothing else.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
