package main

// The HTTP front door: the client-facing surface of a frontend-bearing
// eunomia process. It is a thin shim — every causal decision (token
// parsing, visibility waits, routing to the owning partition) lives in
// geostore.Frontend; this file only maps HTTP onto it.
//
//	GET  /kv/{key}   read; 200 body = value, 404 = no visible version
//	PUT  /kv/{key}   write; body = value, 204 on durably acked
//	GET  /healthz    liveness
//
// Causality rides in the X-Causal-Session header: every response carries
// the client's updated session token, and the client sends it back on its
// next request — from any frontend of any datacenter. Omitting it starts
// a fresh session (no prior reads or writes to respect). Error mapping:
//
//	400  malformed token (or empty key)
//	404  key has no visible version (token still advances)
//	503  visibility wait timed out — the destination DC has not yet
//	     applied the session's causal history; retry (Retry-After: 1)
//	504  the fabric round trip to the partition/receiver timed out

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"eunomia/internal/geostore"
	"eunomia/internal/types"
)

// sessionHeader carries the causal session token both ways.
const sessionHeader = "X-Causal-Session"

// maxValueBytes bounds a PUT body; the paper's workloads use ~100-byte
// values, and the fabric frames whole values, so keep requests sane.
const maxValueBytes = 1 << 20

// serveFrontdoor binds the front-door listener synchronously (a bad
// address fails startup) and serves for the process lifetime. health,
// when non-nil, gates /healthz: a sticky WAL sync error or a wedged
// release stream turns it into a 503 so load balancers drain this front
// door while the process stays up for inspection.
func serveFrontdoor(addr string, fe *geostore.Frontend, health func() error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("frontend listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/kv/", func(w http.ResponseWriter, r *http.Request) { handleKV(fe, w, r) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if health != nil {
			if err := health(); err != nil {
				http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	log.Printf("eunomia-server: causal front door on http://%s/kv/", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("frontend server: %v", err)
		}
	}()
	return nil
}

func handleKV(fe *geostore.Frontend, w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/kv/")
	if key == "" || strings.Contains(key, "/") {
		http.Error(w, "want /kv/{key} with a non-empty, slash-free key", http.StatusBadRequest)
		return
	}
	token := r.Header.Get(sessionHeader)
	switch r.Method {
	case http.MethodGet:
		res, err := fe.Get(token, types.Key(key))
		if err != nil {
			writeFrontendError(w, err)
			return
		}
		w.Header().Set(sessionHeader, res.Token)
		if !res.Found {
			http.Error(w, "no visible version", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(res.Value)
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, maxValueBytes+1))
		if err != nil {
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > maxValueBytes {
			http.Error(w, fmt.Sprintf("value exceeds %d bytes", maxValueBytes), http.StatusRequestEntityTooLarge)
			return
		}
		res, err := fe.Put(token, types.Key(key), body)
		if err != nil {
			writeFrontendError(w, err)
			return
		}
		w.Header().Set(sessionHeader, res.Token)
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, PUT, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// writeFrontendError maps frontend sentinels onto status codes that tell
// the client whose fault it is and whether to retry.
func writeFrontendError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, geostore.ErrBadToken):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, geostore.ErrVisibilityTimeout):
		// The migration guarantee is holding the read back, not a dead
		// component: the DC will catch up, so tell the client to retry.
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, geostore.ErrFrontendClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	}
}
