package xlate

import "tnsr/internal/obs"

// writeMetrics renders the server's families after the chassis's requests
// and rejects. Queue and cache state are snapshotted by their own locks.
func (s *Server) writeMetrics(p *obs.Prom) error {
	qs, cs := s.q.Stats(), s.cfg.Cache.Stats()
	storeBytes, storeEntries := s.cfg.Cache.SizeBytes()

	p.Counter("tnsr_xlated_submissions_total", "Codefile submissions accepted.", s.submissions.Load())
	p.Counter("tnsr_xlated_cached_submissions_total",
		"Submissions answered entirely from the content-addressed store.", s.cachedSubs.Load())
	p.Family("tnsr_xlated_translations_total", "counter", "Queued translations finished, by result.")
	p.Sample(s.done.Load(), "result", "done")
	p.Sample(s.failed.Load(), "result", "failed")
	p.Counter("tnsr_xlated_served_total",
		"Accelerated codefiles served (every byte re-verified on the way out).", s.served.Load())

	p.Gauge("tnsr_xlated_queue_tasks", "Translations currently queued or running.", qs.Tasks)
	p.Gauge("tnsr_xlated_queue_depth", "Fragment jobs enqueued and not yet claimed by a worker.", qs.Frags)
	p.Counter("tnsr_xlated_queue_steals_total",
		"Fragment claims by an idle worker from another submission's task.", qs.Steals)
	p.Counter("tnsr_xlated_queue_frags_total", "Fragment jobs executed by the shared pool.", qs.Executed)

	p.Counter("tnsr_xlated_store_hits_total", "Store lookups that passed every verify gate.", cs.Hits)
	p.Counter("tnsr_xlated_store_rejects_total",
		"Store entries that failed a verify gate and were dropped.", cs.Rejects)
	p.Counter("tnsr_xlated_store_evictions_total", "Store entries evicted by the size cap.", cs.Evictions)
	p.Gauge("tnsr_xlated_store_bytes", "Bytes currently in the content-addressed store.", storeBytes)
	p.Gauge("tnsr_xlated_store_entries", "Entries currently in the content-addressed store.", storeEntries)
	p.Counter("tnsr_xlated_store_put_errors_total",
		"Store population writes refused by the backing disk (translation still served).", cs.PutErrs)

	p.Counter("tnsr_xlated_swept_total", "Torn write temporaries reclaimed by the startup sweep.", s.swept)
	d := 0
	if s.Draining() {
		d = 1
	}
	p.Gauge("tnsr_xlated_draining", "1 while the server refuses new submissions ahead of shutdown.", d)
	return nil
}
