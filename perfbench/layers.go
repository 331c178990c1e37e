package main

// Per-layer figures shared by the workloads. Each is read from outside
// the program: span self times built from what the client timed and
// what the server reports (Server-Timing app;dur, the answer's
// elapsedMs), and /metrics scrapes taken around the measured window.

// httpLayers adds the ufpserve layer: transport (client wall minus
// app;dur, over every op) and handler (app;dur minus the layer's
// elapsedMs, over the ops of the kinds that report one).
func httpLayers(p *pass, rec *recorder, m map[string]float64, timedKinds ...string) {
	var transport []float64
	for _, kind := range []string{"admit", "price", "release", "solve"} {
		transport = append(transport, rec.selfTimes("http."+kind)...)
	}
	setMedian(m, "ufpserve.transport_ms_p50", transport)
	var roots []string
	for _, kind := range timedKinds {
		roots = append(roots, "http."+kind)
	}
	handler := rec.selfTimes("ufpserve.app", roots...)
	setMedian(m, "ufpserve.handler_ms_p50", handler)
	setPercentile(m, "ufpserve.handler_ms_p99", handler, 99)
	if p.attempted > 0 {
		m["ufpserve.response_bytes_mean"] = float64(p.respBytes) / float64(p.attempted)
	}
}

// pathfindCounters adds the path-oracle figures /metrics carries. The
// ufp_pathcache_* gauges sum over live sessions, which here are all the
// workload's sessions (session.evictions must read 0): oracle searches,
// the share of the full-tree budget they pruned, and the share of
// path-structure demands served from cache. Landmark rebuilds and their
// summed duration are counted over the window. The shared landmark
// registry's hit ratio runs from server start: its lookups happen at
// registration, inside setup_s.
func pathfindCounters(p *pass, m map[string]float64) {
	const rebuilds = "ufp_pathcache_landmark_rebuilds_total"
	const rebuildSum = "ufp_pathcache_landmark_rebuild_duration_seconds_sum"
	const lookups = "ufp_pathcache_landmark_registry_lookups_total"
	a := p.after
	m["pathfind.oracle_searches"] = a.family("ufp_pathcache_oracle_searches")
	m["pathfind.oracle_prune_ratio"] = a.family("ufp_pathcache_oracle_prune_ratio")
	if reused, recomputed := a.family("ufp_pathcache_tree_reused"), a.family("ufp_pathcache_tree_recomputed"); reused+recomputed > 0 {
		m["pathfind.path_reuse_ratio"] = reused / (reused + recomputed)
	}
	m["pathfind.landmark_rebuilds"] = a.family(rebuilds) - p.before.family(rebuilds)
	m["pathfind.landmark_rebuild_ms_sum"] = 1000 * (a.family(rebuildSum) - p.before.family(rebuildSum))
	hits, misses := a.labeled(lookups, "result", "hit"), a.labeled(lookups, "result", "miss")
	if hits+misses > 0 {
		m["pathfind.registry_hit_ratio"] = hits / (hits + misses)
	}
}

// sessionLayer adds the session figures: the server's elapsedMs per
// admit or quote, which spans the session lock wait plus the solver
// step, and the lock wait alone as Σ elapsedMs minus the solver time
// the admit and quote histograms hold for the window.
func sessionLayer(p *pass, rec *recorder, m map[string]float64) {
	ops := rec.durations("session.op")
	setMedian(m, "session.op_ms_p50", ops)
	setPercentile(m, "session.op_ms_p99", ops, 99)
	solver := 0.0
	for _, h := range []string{"ufp_session_admit_duration_seconds_sum", "ufp_session_quote_duration_seconds_sum"} {
		solver += 1000 * (p.after.family(h) - p.before.family(h))
	}
	m["session.lock_wait_ms_sum"] = sum(ops) - solver
}
