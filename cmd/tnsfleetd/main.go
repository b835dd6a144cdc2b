// Command tnsfleetd is the fleet run-host: it simulates N concurrent
// machines (goroutine-per-machine), each running the ET1 transaction
// workload in mixed interpreter/RISC mode against one shared accelerated
// codefile, and aggregates their telemetry into a single fleet report —
// mode residency, escape histogram, throughput and latency percentiles.
//
// Usage:
//
//	tnsfleetd -machines 1000 -addr :9912
//
//	-machines n     fleet size (default 128)
//	-txns n         ET1 transactions per machine per round (default 2)
//	-rounds n       fleet rounds; >1 closes the PGO loop between rounds
//	-workload w     program every machine runs (default "et1")
//	-level l        acceleration level: stmtdebug, default or fast
//	-rate tps       per-machine open-loop arrival rate (default 15, the
//	                paper's ET1 rating); 0 means back-to-back
//	-think s        think time appended to every arrival gap, seconds
//	-burst b        arrival burstiness: 1 Poisson, >1 bursty, <1 smoother
//	-seed n         run seed; same seed, same fleet report
//	-chaos n        run the n lowest-ID machines on chaos-mutated images
//	-chaos-seed n   mutant selection seed (independent of -seed)
//	-budget n       per-machine instruction budget per round
//	-slots n        resident simulator-image bound (0 = auto)
//	-workers n      translation worker count (0 = translator default)
//	-cache dir      persistent retranslation cache directory
//	-addr host:port serve /metrics, /healthz and /report; with -addr the
//	                host keeps serving after the run so collectors can
//	                scrape the final state (empty = run once and exit)
//	-profile-url u  close the PGO loop through a remote tnsprofd at u
//	-profile-token t  bearer token for -profile-url
//	-profile-dir d  mount an in-process profile service over store d
//	                instead; every machine gets its own synthetic client
//	                address, so per-client rate limiting is exercised
//	-xlate-url u    send the host's translations to a tnsxlated at u,
//	                degrading to local translation on any failure
//	-xlate-token t  bearer token for -xlate-url
//	-json           print the final report as JSON instead of text
//	-prom           print the final report in Prometheus text format
//
// Endpoints:
//
//	GET /metrics   Prometheus text exposition of the latest completed
//	               round (503 until the first round lands)
//	GET /healthz   liveness: "ok running" during the run, "ok done" after
//	GET /report    the full fleet report as JSON (schema
//	               tnsr/fleet-report/v1)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"tnsr/internal/codefile"
	"tnsr/internal/fleet"
	"tnsr/internal/profsrv"
	"tnsr/internal/svc"
	"tnsr/internal/tcache"
	"tnsr/internal/xlate"
)

// holder is the report the HTTP surface serves, swapped in when the run
// completes. The zero state (nil report) reads as "still running".
type holder struct {
	mu     sync.Mutex
	report *fleet.FleetReport
	err    error
}

func (h *holder) set(fr *fleet.FleetReport, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.report, h.err = fr, err
}

func (h *holder) get() (*fleet.FleetReport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.report, h.err
}

func main() {
	machines := flag.Int("machines", 128, "fleet size")
	txns := flag.Int("txns", fleet.DefaultTxnsPerMachine, "ET1 transactions per machine per round")
	rounds := flag.Int("rounds", 1, "fleet rounds (>1 closes the PGO loop)")
	workload := flag.String("workload", fleet.DefaultWorkload, "program every machine runs")
	levelFlag := flag.String("level", "default", "acceleration level: stmtdebug, default or fast")
	rate := flag.Float64("rate", fleet.DefaultRateTPS, "per-machine arrival rate, txn/s (0 = back-to-back)")
	think := flag.Float64("think", 0, "think time added to every arrival gap, seconds")
	burst := flag.Float64("burst", 1, "arrival burstiness (1 = Poisson)")
	seed := flag.Int64("seed", 1, "run seed")
	chaosN := flag.Int("chaos", 0, "machines running chaos-mutated images")
	chaosSeed := flag.Int64("chaos-seed", 1, "mutant selection seed")
	budget := flag.Int64("budget", fleet.DefaultBudget, "per-machine instruction budget per round")
	slots := flag.Int("slots", 0, "resident simulator-image bound (0 = auto)")
	workers := flag.Int("workers", 0, "translation workers (0 = default)")
	cacheDir := flag.String("cache", "", "persistent retranslation cache directory")
	addr := flag.String("addr", "", "serve /metrics, /healthz, /report here (empty = run once and exit)")
	profURL := flag.String("profile-url", "", "remote tnsprofd base URL for the PGO loop")
	profToken := flag.String("profile-token", "", "bearer token for -profile-url / -profile-dir")
	profDir := flag.String("profile-dir", "", "mount an in-process profile service over this store")
	xlateURL := flag.String("xlate-url", "", "remote tnsxlated base URL for the host's translations")
	xlateToken := flag.String("xlate-token", "", "bearer token for -xlate-url")
	jsonOut := flag.Bool("json", false, "print the final report as JSON")
	promOut := flag.Bool("prom", false, "print the final report in Prometheus text format")
	quiet := flag.Bool("quiet", false, "suppress per-round progress lines")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: tnsfleetd [flags]")
		os.Exit(2)
	}

	lvl, err := codefile.ParseLevel(*levelFlag)
	if err != nil {
		log.Fatalf("tnsfleetd: %v", err)
	}

	cfg := fleet.Config{
		Machines:       *machines,
		TxnsPerMachine: *txns,
		Rounds:         *rounds,
		Level:          lvl,
		Workers:        *workers,
		Seed:           *seed,
		Budget:         *budget,
		RunSlots:       *slots,
		Traffic: fleet.Traffic{
			RateTPS:      *rate,
			ThinkSeconds: *think,
			Burstiness:   *burst,
		},
		ChaosMachines: *chaosN,
		ChaosSeed:     *chaosSeed,
		Workload:      *workload,
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			log.Printf("tnsfleetd: "+format, args...)
		}
	}

	switch {
	case *profDir != "":
		store, err := profsrv.OpenStore(*profDir)
		if err != nil {
			log.Fatalf("tnsfleetd: %v", err)
		}
		cfg.InProc = profsrv.New(profsrv.Config{Store: store,
			Limits: svc.Limits{Token: *profToken, RatePerSec: 200, RateBurst: 50}})
		cfg.InProcToken = *profToken
	case *profURL != "":
		cfg.Source = profsrv.NewClient(*profURL, *profToken)
	}

	if *xlateURL != "" {
		// Remote translation with local fallback: any service failure
		// degrades to translating on this host — byte-identical by the
		// determinism contract, so only availability changes, not the image.
		cfg.Xlate = xlate.NewClient(*xlateURL, *xlateToken)
	}

	if *cacheDir != "" {
		c, err := tcache.Open(*cacheDir)
		if err != nil {
			log.Fatalf("tnsfleetd: %v", err)
		}
		cfg.Cache = c
	}

	var h holder
	if *addr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fr, err := h.get()
			switch {
			case err != nil:
				http.Error(w, "run failed: "+err.Error(), http.StatusInternalServerError)
			case fr == nil:
				fmt.Fprintln(w, "ok running")
			default:
				fmt.Fprintln(w, "ok done")
			}
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			fr, err := h.get()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if fr == nil || fr.Final() == nil {
				http.Error(w, "no completed round yet", http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			fr.WritePrometheus(w)
		})
		mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
			fr, err := h.get()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if fr == nil {
				http.Error(w, "run in progress", http.StatusServiceUnavailable)
				return
			}
			data, err := fr.JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(data)
			fmt.Fprintln(w)
		})
		hs := &http.Server{
			Addr:              *addr,
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := hs.ListenAndServe(); err != http.ErrServerClosed {
				log.Fatalf("tnsfleetd: %v", err)
			}
		}()
		log.Printf("tnsfleetd: serving /metrics, /healthz, /report on %s", *addr)
	}

	fr, err := fleet.Run(cfg)
	h.set(fr, err)
	if err != nil {
		log.Fatalf("tnsfleetd: %v", err)
	}
	if err := fr.Validate(); err != nil {
		log.Fatalf("tnsfleetd: report invalid: %v", err)
	}

	switch {
	case *jsonOut:
		data, err := fr.JSON()
		if err != nil {
			log.Fatalf("tnsfleetd: %v", err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	case *promOut:
		fr.WritePrometheus(os.Stdout)
	default:
		fr.WriteText(os.Stdout)
	}

	if *addr != "" {
		// Stay up so collectors can scrape the final state; the CI smoke
		// job (and any operator) curls /metrics after the run completes.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}
