// Command tnsprofd is the fleet profile daemon: the aggregation point that
// turns per-machine PGO captures into a shared, continuously-improving
// translation hint store. Runners push captures (tnsprof -push), the daemon
// merges them order-independently under the fingerprint of the codefile
// they were captured against, ages the aggregate across runs so stale
// behavior decays, and serves the aggregate back to any machine about to
// translate the same codefile (axcel -profile-url, xrun.RunAdaptive).
//
// Usage:
//
//	tnsprofd -addr :9911 -dir /var/lib/tnsprofd [flags]
//
//	-addr host:port    listen address (default "127.0.0.1:9911")
//	-dir path          profile store directory (default "./profstore")
//	-token t           require "Authorization: Bearer t" on the profile
//	                   endpoints (metrics and health stay open); empty
//	                   disables auth
//	-max-body n        reject uploads larger than n bytes (default 4 MiB)
//	-age-every n       age an aggregate whenever its merged run count
//	                   reaches n (halve histograms, drop cold rows);
//	                   0 disables aging (default 32)
//	-age-floor n       drop aged rows whose count falls below n (default 1)
//	-rate r            sustained requests/second across all clients
//	                   (default 50; 0 disables limiting)
//	-burst b           rate-limiter burst size (default 100)
//	-shards n          spread the store across n subdirectories keyed by
//	                   fingerprint prefix (0 = single directory)
//	-peers list        comma-separated sibling tnsprofd base URLs; a GET
//	                   serves the merge of the local aggregate with every
//	                   reachable peer's local aggregate (an unreachable
//	                   peer degrades out and is counted in /metrics)
//	-peer-timeout d    per-peer fetch timeout (default 2s)
//	-peer-token t      bearer token presented to peers (default: -token)
//	-peer-break-after n    open a peer's circuit breaker after n
//	                       consecutive failures; further merges skip the
//	                       peer without paying its timeout (0 = default 5)
//	-peer-break-cooldown d how long an open breaker waits before letting
//	                       one probe through (0 = default 5s)
//	-drain-timeout d   bound on the SIGTERM/SIGINT graceful drain: refuse
//	                   new uploads, keep serving reads, exit when in-flight
//	                   requests finish (default 10s)
//
// Endpoints:
//
//	POST /v1/profiles/{fingerprint}   upload one capture; responds with the
//	                                  merged aggregate
//	GET  /v1/profiles/{fingerprint}   fetch the current aggregate
//	GET  /metrics                     Prometheus text exposition
//	GET  /healthz                     liveness probe
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"tnsr/internal/profsrv"
	"tnsr/internal/store"
	"tnsr/internal/svc"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9911", "listen address")
	dir := flag.String("dir", "profstore", "profile store directory")
	token := flag.String("token", "", "bearer token (empty disables auth)")
	maxBody := flag.Int64("max-body", profsrv.DefaultMaxBody, "maximum upload size in bytes")
	ageEvery := flag.Int64("age-every", 32, "age an aggregate every N merged runs (0 = never)")
	ageFloor := flag.Int64("age-floor", profsrv.DefaultAgeFloor, "drop aged rows below this count")
	rate := flag.Float64("rate", 50, "sustained requests/second (0 = unlimited)")
	burst := flag.Int("burst", 100, "rate-limiter burst")
	shards := flag.Int("shards", 0, "spread the store across N subdirectories (0 = single dir)")
	peers := flag.String("peers", "", "comma-separated sibling tnsprofd base URLs")
	peerTimeout := flag.Duration("peer-timeout", profsrv.DefaultPeerTimeout, "per-peer fetch timeout")
	peerToken := flag.String("peer-token", "", "bearer token presented to peers (default: -token)")
	breakAfter := flag.Int("peer-break-after", 0, "open a peer's circuit breaker after N consecutive failures (0 = default)")
	breakCooldown := flag.Duration("peer-break-cooldown", 0, "how long an open peer breaker waits before probing (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound on SIGTERM/SIGINT")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: tnsprofd [flags]")
		os.Exit(2)
	}

	var st *profsrv.Store
	if *shards > 0 {
		backing, err := store.OpenSharded(*dir, *shards)
		if err != nil {
			log.Fatalf("tnsprofd: %v", err)
		}
		st = profsrv.NewStore(backing)
	} else {
		var err error
		st, err = profsrv.OpenStore(*dir)
		if err != nil {
			log.Fatalf("tnsprofd: %v", err)
		}
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if *peerToken == "" {
		*peerToken = *token
	}

	// Restart recovery: a previous life killed mid-write leaves torn write
	// temporaries in the store; they were never visible to any read path,
	// sweeping reclaims them before traffic arrives.
	if n, err := st.Sweep(); err != nil {
		log.Printf("tnsprofd: startup sweep: %v", err)
	} else if n > 0 {
		log.Printf("tnsprofd: startup sweep reclaimed %d torn write temporaries", n)
	}

	srv := profsrv.New(profsrv.Config{
		Store:             st,
		Limits:            svc.Limits{Token: *token, MaxBody: *maxBody, RatePerSec: *rate, RateBurst: *burst},
		AgeEvery:          *ageEvery,
		AgeFloor:          *ageFloor,
		Peers:             peerList,
		PeerTimeout:       *peerTimeout,
		PeerToken:         *peerToken,
		PeerBreakAfter:    *breakAfter,
		PeerBreakCooldown: *breakCooldown,
	})
	log.Printf("tnsprofd: serving profiles from %s on %s (auth %s, age every %d runs, %d peers)",
		*dir, *addr, map[bool]string{true: "on", false: "off"}[*token != ""], *ageEvery, len(peerList))
	// SIGTERM/SIGINT drains: refuse new uploads (503 + Retry-After; every
	// accepted upload is already durably merged when its 200 goes out),
	// keep serving reads, and close the listener once in-flight requests
	// finish.
	svc.Run("tnsprofd", *addr, srv, *drainTimeout)
}
