package profsrv

import (
	"errors"

	"tnsr/internal/obs"
	"tnsr/internal/retry"
)

// countPeer bumps one peer's entry in a per-peer counter map.
func (s *Server) countPeer(m map[string]int64, peer string) {
	s.peerMu.Lock()
	m[peer]++
	s.peerMu.Unlock()
}

// writeMetrics renders the server's families after the chassis's requests
// and rejects. The peer breakers are snapshotted under their own lock, so
// no two locks nest.
func (s *Server) writeMetrics(p *obs.Prom) error {
	stored, err := s.cfg.Store.List()
	if err != nil {
		return errors.New("store unreadable")
	}
	breakers := make([]retry.BreakerCounts, len(s.cfg.Peers))
	for i, peer := range s.cfg.Peers {
		breakers[i] = s.breakerFor(peer).Counts()
	}

	p.Counter("tnsr_profsrv_uploads_total", "Profiles accepted and merged into an aggregate.", s.uploads.Load())
	p.Counter("tnsr_profsrv_served_total", "Aggregates served to translators.", s.served.Load())
	p.Counter("tnsr_profsrv_age_events_total", "Cross-run aging passes applied to an aggregate.", s.ages.Load())
	p.Counter("tnsr_profsrv_peer_merges_total",
		"Multi-node aggregates served (local + peer merge).", s.peerMerges.Load())

	s.peerMu.Lock()
	p.Family("tnsr_profsrv_peer_errors_total", "counter",
		"Peer aggregate fetches that failed and were degraded out of the answer, by peer.")
	p.Sorted("peer", s.peerErrs)
	p.Family("tnsr_profsrv_peer_fastfails_total", "counter",
		"Peer merges skipped because the peer's circuit breaker was open, by peer.")
	p.Sorted("peer", s.peerFastFails)
	s.peerMu.Unlock()

	p.Family("tnsr_profsrv_peer_breaker_state", "gauge",
		"Peer circuit breaker state (0 closed, 1 open, 2 half-open), by peer.")
	for i, peer := range s.cfg.Peers {
		p.Sample(int(breakers[i].State), "peer", peer)
	}
	p.Family("tnsr_profsrv_peer_breaker_opens_total", "counter",
		"Times a peer's circuit breaker tripped open, by peer.")
	for i, peer := range s.cfg.Peers {
		p.Sample(breakers[i].Opens, "peer", peer)
	}

	p.Gauge("tnsr_profsrv_stored_profiles",
		"Aggregates currently stored, one per codefile fingerprint.", len(stored))
	d := 0
	if s.Draining() {
		d = 1
	}
	p.Gauge("tnsr_profsrv_draining", "1 while the server refuses new uploads ahead of shutdown.", d)
	return nil
}
