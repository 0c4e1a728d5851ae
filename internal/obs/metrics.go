package obs

// This file pins the canonical metric set. Every family the stack emits
// is pre-registered here at init, so a kardd /metrics scrape shows the
// full schema (at zero) from the first request, and instrumented
// packages pay only the atomic update — never a registry lookup — per
// event. See DESIGN.md §8 for the naming scheme and overhead budget.

// DefaultRegistry backs the process-wide metric set and the kardd
// /metrics endpoint.
var DefaultRegistry = NewRegistry()

// Flight is the process-wide flight recorder, dumped with watchdog
// teardown reports and FailRun errors.
var Flight = NewRecorder(256)

// DepthBuckets bounds the radix-walk depth histogram: the page table has
// four levels, so a lookup terminates after touching 1–4 nodes.
var DepthBuckets = []float64{1, 2, 3}

// CycleBuckets bounds the fault-handler stage-latency histograms in
// simulated cycles, spanning "cheap PKRU fix-up" to "several fault
// windows" (the paper's handling cost is ~24k cycles).
var CycleBuckets = []float64{1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000}

// FsyncBuckets bounds the journal fsync latency histogram in seconds.
var FsyncBuckets = []float64{1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1}

// BatchDepthBuckets bounds the engine's batch-drain depth histogram:
// power-of-two fills up to the default per-thread buffer capacity (128)
// and one bucket beyond for larger configured buffers.
var BatchDepthBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Metrics is the pre-registered Kard metric set. Instrumented packages
// update these handles directly.
type Metrics struct {
	// mem — simulated MMU.
	MemTLBHits       *Counter
	MemTLBMisses     *Counter
	MemMinorFaults   *Counter
	MemMmapCalls     *Counter
	MemMunmapCalls   *Counter
	MemProtectCalls  *Counter
	MemTruncateCalls *Counter
	MemRadixDepth    *Histogram

	// mpk — protection keys.
	MpkWRPKRU        *Counter
	MpkPkeyMprotect  *Counter
	MpkPkeyOccupancy *Gauge

	// alloc — Kard allocator.
	AllocUniquePages *Counter
	AllocFallbacks   *Counter

	// core — detector fault handler, by stage.
	CoreFaultIdentify   *Histogram
	CoreFaultMigrate    *Histogram
	CoreFaultRace       *Histogram
	CoreFaultSoft       *Histogram
	CoreFaultInterleave *Histogram
	CoreKeyRecycles     *Counter
	CoreKeyDegrades     *Counter

	// sim — engine runs.
	SimAccessUnits    *Counter
	SimRaces          *Counter
	SimDegradations   *Counter
	SimFaultsInjected *Counter
	SimFaultRetries   *Counter
	SimRunsOK         *Counter
	SimRunsFailed     *Counter
	SimRunsWatchdog   *Counter
	SimRunsDeadline   *Counter

	// sim — batched execution (DESIGN.md §12). Per-run tallies are plain
	// engine fields flushed at run teardown, so the batched access path
	// stays allocation- and atomic-free.
	SimBatchDrains *Counter
	SimBatchDepth  *Histogram

	// Deprecated: the engine no longer runs reconciliation epochs. These
	// three are unregistered counters that always read 0, kept only
	// because the perfbench module still reads them.
	SimEpochs        *Counter
	SimEpochAccesses *Counter
	SimEpochVetoes   *Counter

	// service — kardd.
	SvcQueueDepth         *Gauge
	SvcRejectsSaturated   *Counter
	SvcRejectsQuarantined *Counter
	SvcRejectsDraining    *Counter
	SvcBreakerTrips       *Counter
	SvcJournalFsync       *Histogram
	SvcJournalTruncations *Counter

	// cluster — coordinator/worker sharding (DESIGN.md §9).
	ClusterCellsInflight   *Gauge
	ClusterCellsCompleted  *Counter
	ClusterCellsReassigned *Counter
	ClusterWorkersLive     *Gauge
	ClusterWorkersDead     *Counter
	ClusterStoreHits       *Counter
	ClusterStoreMisses     *Counter
	ClusterJournalFsync    *Histogram

	// cluster resilience — RPC retry/backoff, idempotency dedup, worker
	// self-fencing, coordinator-restart re-admission, and the seeded
	// network fault transport (DESIGN.md §9, "Retries and idempotency").
	ClusterRetryJoin       *Counter
	ClusterRetryLease      *Counter
	ClusterRetryComplete   *Counter
	ClusterRetryHeartbeat  *Counter
	ClusterDedupHits       *Counter
	ClusterSelfFences      *Counter
	ClusterWorkersRejoined *Counter
	ClusterNetFaults       *Counter

	// storage — WAL snapshot/compaction, corruption scrubbing, and the
	// seeded disk-fault shim (DESIGN.md §11).
	StorageCompactions        *Counter
	StorageSnapshotBytes      *Gauge
	StorageQuarantined        *Counter
	StorageSalvagedRecords    *Counter
	StorageCacheChecksumFails *Counter
	StorageFaultWriteShort    *Counter
	StorageFaultENOSPC        *Counter
	StorageFaultFsyncEIO      *Counter
	StorageFaultReadBitflip   *Counter
	StorageFaultRenameDrop    *Counter

	// trace — the structured span tracer (DESIGN.md §13): spans opened,
	// events flushed into the spool, events dropped at the spool budget,
	// Chrome-JSON exports served, RPCs arriving with propagated trace
	// context, and race provenance records attached.
	TraceSpans         *Counter
	TraceEvents        *Counter
	TraceDropped       *Counter
	TraceExports       *Counter
	TraceRPCPropagated *Counter
	TraceProvenance    *Counter

	reg *Registry
}

// RegisterMetrics registers the canonical set on r and returns the
// handles. Idempotent per registry.
func RegisterMetrics(r *Registry) *Metrics {
	stage := func(s string) *Histogram {
		return r.Histogram("kard_core_fault_stage_cycles",
			"Simulated-cycle cost of detector fault handling, by stage.", CycleBuckets, "stage", s)
	}
	diskFault := func(r *Registry, site string) *Counter {
		return r.Counter("kard_storage_disk_faults_injected_total",
			"Disk faults fired by the seeded storage fault shim, by site.", "site", site)
	}
	return &Metrics{
		MemTLBHits:       r.Counter("kard_mem_tlb_hits_total", "TLB lookups served without a page-table walk."),
		MemTLBMisses:     r.Counter("kard_mem_tlb_misses_total", "TLB lookups that walked the radix page table."),
		MemMinorFaults:   r.Counter("kard_mem_minor_faults_total", "First-touch minor faults binding frames to pages."),
		MemMmapCalls:     r.Counter("kard_mem_mmap_calls_total", "Simulated mmap calls."),
		MemMunmapCalls:   r.Counter("kard_mem_munmap_calls_total", "Simulated munmap calls."),
		MemProtectCalls:  r.Counter("kard_mem_protect_calls_total", "Simulated mprotect calls."),
		MemTruncateCalls: r.Counter("kard_mem_truncate_calls_total", "Simulated ftruncate calls on the heap memfd."),
		MemRadixDepth: r.Histogram("kard_mem_radix_walk_depth",
			"Page-table nodes touched per radix walk (4 levels; +Inf bucket is a full walk).", DepthBuckets),

		MpkWRPKRU: r.Counter("kard_mpk_wrpkru_total", "WRPKRU register writes charged by the detector."),
		MpkPkeyMprotect: r.Counter("kard_mpk_pkey_mprotect_calls_total",
			"pkey_mprotect calls tagging pages with protection keys."),
		MpkPkeyOccupancy: r.Gauge("kard_mpk_pkey_occupancy",
			"Protection keys currently guarding at least one object, across live detectors."),

		AllocUniquePages: r.Counter("kard_alloc_unique_pages_total",
			"Allocations placed on their own page for per-object protection."),
		AllocFallbacks: r.Counter("kard_alloc_fallbacks_total",
			"Allocations that degraded to native compact placement."),

		CoreFaultIdentify:   stage("identify"),
		CoreFaultMigrate:    stage("migrate"),
		CoreFaultRace:       stage("race"),
		CoreFaultSoft:       stage("soft"),
		CoreFaultInterleave: stage("interleave"),
		CoreKeyRecycles: r.Counter("kard_core_key_recycles_total",
			"Protection keys reclaimed from previous objects for reassignment."),
		CoreKeyDegrades: r.Counter("kard_core_key_degrades_total",
			"Objects left unmonitored after pkey allocation or protection degraded."),

		SimAccessUnits: r.Counter("kard_sim_access_units_total",
			"Memory-access units executed by workload threads."),
		SimRaces:        r.Counter("kard_sim_races_total", "Data races reported by detectors."),
		SimDegradations: r.Counter("kard_sim_degradations_total", "Graceful degradations under injected faults."),
		SimFaultsInjected: r.Counter("kard_sim_faults_injected_total",
			"Faults fired by the deterministic injector."),
		SimFaultRetries: r.Counter("kard_sim_fault_retries_total",
			"Retries consumed absorbing transient injected faults."),
		SimRunsOK:       r.Counter("kard_sim_runs_total", "Simulation runs by outcome.", "outcome", "ok"),
		SimRunsFailed:   r.Counter("kard_sim_runs_total", "Simulation runs by outcome.", "outcome", "failed"),
		SimRunsWatchdog: r.Counter("kard_sim_runs_total", "Simulation runs by outcome.", "outcome", "watchdog"),
		SimRunsDeadline: r.Counter("kard_sim_runs_total", "Simulation runs by outcome.", "outcome", "deadline"),

		SimBatchDrains: r.Counter("kard_sim_batch_drains_total",
			"Per-thread access batches drained at sync points, buffer fills, and explicit flushes."),
		SimBatchDepth: r.Histogram("kard_sim_batch_depth",
			"Buffered accesses per batch drain.", BatchDepthBuckets),
		SimEpochs:        new(Counter),
		SimEpochAccesses: new(Counter),
		SimEpochVetoes:   new(Counter),

		SvcQueueDepth: r.Gauge("kard_service_queue_depth", "Jobs admitted and not yet dispatched to a worker."),
		SvcRejectsSaturated: r.Counter("kard_service_rejects_total",
			"Job submissions rejected at admission, by reason.", "reason", "saturated"),
		SvcRejectsQuarantined: r.Counter("kard_service_rejects_total",
			"Job submissions rejected at admission, by reason.", "reason", "quarantined"),
		SvcRejectsDraining: r.Counter("kard_service_rejects_total",
			"Job submissions rejected at admission, by reason.", "reason", "draining"),
		SvcBreakerTrips: r.Counter("kard_service_breaker_trips_total",
			"Per-workload circuit-breaker trips (closed or half-open to open)."),
		SvcJournalFsync: r.Histogram("kard_service_journal_fsync_seconds",
			"Wall-clock fsync latency per journal append.", FsyncBuckets),
		SvcJournalTruncations: r.Counter("kard_service_journal_truncations_total",
			"Torn journal tails discarded during replay."),

		ClusterCellsInflight: r.Gauge("kard_cluster_cells_inflight",
			"Matrix cells currently assigned to a live worker."),
		ClusterCellsCompleted: r.Counter("kard_cluster_cells_completed_total",
			"Matrix cells completed by cluster workers (cache-served cells included)."),
		ClusterCellsReassigned: r.Counter("kard_cluster_cells_reassigned_total",
			"Cell assignments revoked from dead or stalled workers and requeued."),
		ClusterWorkersLive: r.Gauge("kard_cluster_workers_live",
			"Workers joined and not declared dead."),
		ClusterWorkersDead: r.Counter("kard_cluster_workers_dead_total",
			"Workers declared dead after missing heartbeats."),
		ClusterStoreHits: r.Counter("kard_cluster_store_hits_total",
			"Cells served from the shared artifact store instead of recomputed."),
		ClusterStoreMisses: r.Counter("kard_cluster_store_misses_total",
			"Cells a worker had to simulate because no peer had finished them."),
		ClusterJournalFsync: r.Histogram("kard_cluster_journal_fsync_seconds",
			"Wall-clock fsync latency per assignment-journal append.", FsyncBuckets),

		ClusterRetryJoin: r.Counter("kard_cluster_rpc_retries_total",
			"Worker RPC attempts retried after a transient failure, by RPC.", "rpc", "join"),
		ClusterRetryLease: r.Counter("kard_cluster_rpc_retries_total",
			"Worker RPC attempts retried after a transient failure, by RPC.", "rpc", "lease"),
		ClusterRetryComplete: r.Counter("kard_cluster_rpc_retries_total",
			"Worker RPC attempts retried after a transient failure, by RPC.", "rpc", "complete"),
		ClusterRetryHeartbeat: r.Counter("kard_cluster_rpc_retries_total",
			"Worker RPC attempts retried after a transient failure, by RPC.", "rpc", "heartbeat"),
		ClusterDedupHits: r.Counter("kard_cluster_dedup_hits_total",
			"RPCs answered from the coordinator's request-ID dedup window instead of re-executed."),
		ClusterSelfFences: r.Counter("kard_cluster_self_fences_total",
			"Workers that fenced themselves after consecutive heartbeat failures and rejoined."),
		ClusterWorkersRejoined: r.Counter("kard_cluster_workers_rejoined_total",
			"Journaled workers re-admitted under their old identity after a coordinator restart."),
		ClusterNetFaults: r.Counter("kard_cluster_netfaults_injected_total",
			"Network faults fired by the seeded fault transport (drops, delays, duplicates, severs)."),

		StorageCompactions: r.Counter("kard_storage_compactions_total",
			"WAL snapshot-and-truncate compactions completed."),
		StorageSnapshotBytes: r.Gauge("kard_storage_snapshot_bytes",
			"Size of the most recently written journal snapshot file."),
		StorageQuarantined: r.Counter("kard_storage_quarantined_records_total",
			"Corrupt mid-journal regions (and snapshots) quarantined during replay."),
		StorageSalvagedRecords: r.Counter("kard_storage_salvaged_records_total",
			"Intact records recovered from beyond a quarantined corrupt region."),
		StorageCacheChecksumFails: r.Counter("kard_storage_cache_checksum_failures_total",
			"Artifact-store entries whose checksum failed on read and were quarantined for recompute."),
		StorageFaultWriteShort:  diskFault(r, "disk.write.short"),
		StorageFaultENOSPC:      diskFault(r, "disk.write.enospc"),
		StorageFaultFsyncEIO:    diskFault(r, "disk.fsync.eio"),
		StorageFaultReadBitflip: diskFault(r, "disk.read.bitflip"),
		StorageFaultRenameDrop:  diskFault(r, "disk.rename.drop"),

		TraceSpans: r.Counter("kard_trace_spans_total",
			"Trace spans opened across all tracks."),
		TraceEvents: r.Counter("kard_trace_events_total",
			"Trace events flushed into the tracer spool."),
		TraceDropped: r.Counter("kard_trace_events_dropped_total",
			"Trace events dropped at the spool budget."),
		TraceExports: r.Counter("kard_trace_exports_total",
			"Chrome trace-event JSON exports served."),
		TraceRPCPropagated: r.Counter("kard_trace_rpc_propagated_total",
			"Cluster RPCs that arrived carrying propagated trace context."),
		TraceProvenance: r.Counter("kard_trace_provenance_records_total",
			"Race reports annotated with a forensic provenance record."),

		reg: r,
	}
}

// BreakerState returns the per-workload breaker-state gauge
// (0 closed, 1 half-open, 2 open), registering it on first use. Like
// WorkerHeartbeatAge it is runtime-registered: workloads are not known
// at init.
func (m *Metrics) BreakerState(workload string) *Gauge {
	return m.reg.Gauge("kard_service_breaker_state",
		"Circuit-breaker state per workload: 0 closed, 1 half-open, 2 open.", "workload", workload)
}

// WorkerHeartbeatAge returns the per-worker heartbeat-age gauge in
// milliseconds, registering it on first use (worker names are not known
// at init). The coordinator's monitor refreshes it every sweep; an age
// growing past the heartbeat timeout is the signal that precedes a
// worker-dead declaration (DESIGN.md §9).
func (m *Metrics) WorkerHeartbeatAge(worker string) *Gauge {
	return m.reg.Gauge("kard_cluster_worker_heartbeat_age_ms",
		"Milliseconds since each worker's last heartbeat, refreshed by the coordinator monitor.",
		"worker", worker)
}

// Std is the process-wide metric set every instrumented package updates.
var Std = RegisterMetrics(DefaultRegistry)
