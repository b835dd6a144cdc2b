// Command tnsxlated is the translation service daemon: accept TNS
// codefiles over HTTP, translate them through the same deterministic
// Accelerator every local tool uses, keep the accelerated codefiles in a
// content-addressed store keyed by core.Options.TransKey, and serve them
// back. Fragment translation for every concurrent submission shares one
// work-stealing pool, so a large codefile cannot starve a small one
// submitted after it.
//
// Usage:
//
//	tnsxlated -addr :9912 -dir /var/lib/tnsxlated [flags]
//
//	-addr host:port      listen address (default "127.0.0.1:9912")
//	-dir path            codefile store directory (default "./xlatestore")
//	-shards n            spread the store across n subdirectories keyed by
//	                     TransKey prefix (0 = single directory)
//	-cache-max-bytes n   evict least-recently-used store entries past this
//	                     total size (0 = unbounded)
//	-token t             require "Authorization: Bearer t" on /v1 (metrics
//	                     and health stay open); empty disables auth
//	-max-body n          reject submissions larger than n bytes
//	                     (default 64 MiB)
//	-rate r              sustained requests/second per client (default 50;
//	                     0 disables limiting)
//	-burst b             rate-limiter burst size (default 100)
//	-workers n           fragment translation workers (0 = all CPUs)
//	-drain-timeout d     bound on the SIGTERM/SIGINT graceful drain: refuse
//	                     new submissions, finish in-flight translations
//	                     into the store, then exit (default 30s)
//
// At startup the daemon sweeps torn write temporaries a killed previous
// life left in the store; completed results survive the crash and serve
// byte-identically, while clients of lost in-flight jobs re-submit and the
// content-addressed key dedups the replay.
//
// Endpoints:
//
//	POST /v1/xlate        submit a codefile + translation knobs
//	GET  /v1/xlate/{key}  fetch the accelerated codefile (re-verified)
//	GET  /metrics         Prometheus text exposition
//	GET  /healthz         liveness probe
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tnsr/internal/store"
	"tnsr/internal/svc"
	"tnsr/internal/tcache"
	"tnsr/internal/xlate"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9912", "listen address")
	dir := flag.String("dir", "xlatestore", "codefile store directory")
	shards := flag.Int("shards", 0, "spread the store across N subdirectories (0 = single dir)")
	maxBytes := flag.Int64("cache-max-bytes", 0, "evict LRU store entries past this total size (0 = unbounded)")
	token := flag.String("token", "", "bearer token (empty disables auth)")
	maxBody := flag.Int64("max-body", xlate.DefaultMaxBody, "maximum submission size in bytes")
	rate := flag.Float64("rate", 50, "sustained requests/second per client (0 = unlimited)")
	burst := flag.Int("burst", 100, "rate-limiter burst")
	workers := flag.Int("workers", 0, "fragment translation workers (0 = all CPUs)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound on SIGTERM/SIGINT")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: tnsxlated [flags]")
		os.Exit(2)
	}

	var cache *tcache.Cache
	if *shards > 0 {
		backing, err := store.OpenSharded(*dir, *shards)
		if err != nil {
			log.Fatalf("tnsxlated: %v", err)
		}
		cache = tcache.New(backing)
	} else {
		var err error
		cache, err = tcache.Open(*dir)
		if err != nil {
			log.Fatalf("tnsxlated: %v", err)
		}
	}
	if *maxBytes > 0 {
		cache.SetMaxBytes(*maxBytes)
	}

	srv := xlate.New(xlate.Config{
		Cache:   cache,
		Limits:  svc.Limits{Token: *token, MaxBody: *maxBody, RatePerSec: *rate, RateBurst: *burst},
		Workers: *workers,
	})
	if n := srv.Swept(); n > 0 {
		log.Printf("tnsxlated: startup sweep reclaimed %d torn write temporaries", n)
	}
	log.Printf("tnsxlated: serving translations from %s on %s (auth %s)",
		*dir, *addr, map[bool]string{true: "on", false: "off"}[*token != ""])
	// SIGTERM/SIGINT drains: refuse new submissions (503 + Retry-After),
	// finish in-flight translations into the store, then close the
	// listener. A client mid-poll either fetches its completed result
	// before the listener goes, or re-submits to the restarted daemon and
	// the content-addressed key dedups the replay.
	svc.Run("tnsxlated", *addr, srv, *drainTimeout)
}
