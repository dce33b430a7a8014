package metrics

import (
	"sort"
	"strconv"
)

// Family names shared between the instrumented substrates and the typed
// views. Owners register their families under these so the views (and
// the acceptance tests) never chase string drift.
const (
	// sim engine
	FamSimEvents  = "ncdsm_sim_events_total"
	FamSimPending = "ncdsm_sim_pending_events"
	FamSimNow     = "ncdsm_sim_now_seconds"
	FamSimDelay   = "ncdsm_sim_event_delay_seconds"

	// sharded-engine window schedule. These exist only on multi-shard
	// sets: barrier cadence is a property of the parallel schedule, not
	// of the simulated system, so cross-shard-count byte-identity
	// comparisons filter them (see ShardScheduleFamilyPrefix).
	FamShardBarriers = "ncdsm_shard_barriers_total"
	FamShardElided   = "ncdsm_shard_windows_elided_total"

	// ShardScheduleFamilyPrefix is the common prefix of the families
	// above; identity tests and the CI smoke strip matching lines before
	// diffing snapshots across shard counts.
	ShardScheduleFamilyPrefix = "ncdsm_shard_"

	// remote memory controller
	FamRMCRequests    = "ncdsm_rmc_requests_total"
	FamRMCRetries     = "ncdsm_rmc_retries_total"
	FamRMCForwarded   = "ncdsm_rmc_forwarded_total"
	FamRMCServedLocal = "ncdsm_rmc_served_local_total"
	FamRMCLoopback    = "ncdsm_rmc_loopback_total"
	FamRMCAborted     = "ncdsm_rmc_aborted_total"
	FamRMCClientUtil  = "ncdsm_rmc_client_utilization"
	FamRMCServerUtil  = "ncdsm_rmc_server_utilization"
	FamRMCLatency     = "ncdsm_rmc_remote_latency_seconds"

	// HNC-HT framing (reliability layer)
	FamHNCFrames      = "ncdsm_hnc_frames_total"
	FamHNCSeqGaps     = "ncdsm_hnc_seq_gaps_total"
	FamHNCRegressions = "ncdsm_hnc_seq_regressions_total"
	FamHNCCRCFailures = "ncdsm_hnc_crc_failures_total"

	// mesh fabric
	FamMeshDelivered  = "ncdsm_mesh_delivered_total"
	FamMeshHops       = "ncdsm_mesh_hops_total"
	FamMeshLinkFrames = "ncdsm_mesh_link_frames_total"
	FamMeshLinkBytes  = "ncdsm_mesh_link_bytes_total"

	// intra-node cache hierarchy
	FamCacheAccesses     = "ncdsm_cache_accesses_total"
	FamCacheHits         = "ncdsm_cache_hits_total"
	FamCacheMisses       = "ncdsm_cache_misses_total"
	FamCacheWritebacks   = "ncdsm_cache_writebacks_total"
	FamCacheFlushedDirty = "ncdsm_cache_flushed_dirty_total"

	// DRAM banks
	FamDRAMReads        = "ncdsm_dram_reads_total"
	FamDRAMWrites       = "ncdsm_dram_writes_total"
	FamDRAMRowHits      = "ncdsm_dram_row_hits_total"
	FamDRAMRowConflicts = "ncdsm_dram_row_conflicts_total"

	// node-level op mix and memory accounting
	FamNodeLocalOps   = "ncdsm_node_local_ops_total"
	FamNodeRemoteOps  = "ncdsm_node_remote_ops_total"
	FamNodePrefetches = "ncdsm_node_prefetches_total"
	FamPoolFreeBytes  = "ncdsm_pool_free_bytes"
	FamRegionBorrowed = "ncdsm_region_borrowed_bytes"

	// fault injection and recovery. These families exist only in
	// systems running a non-empty fault plan, so fault-free snapshots
	// stay byte-identical to builds without the fault layer.
	FamFaultDrops       = "ncdsm_fault_drops_injected_total"
	FamFaultCorruptions = "ncdsm_fault_corruptions_injected_total"
	FamFaultDelays      = "ncdsm_fault_delays_injected_total"
	FamRMCRetransmits   = "ncdsm_rmc_retransmits_total"
	FamRMCAbandoned     = "ncdsm_rmc_abandoned_total"
	FamRMCStormNACKs    = "ncdsm_rmc_storm_nacks_total"
	FamRMCStalls        = "ncdsm_rmc_server_stalls_total"
	FamNodeAbandonedOps = "ncdsm_node_abandoned_ops_total"
	FamMeshReroutes     = "ncdsm_mesh_reroutes_total"
	FamMeshDetourHops   = "ncdsm_mesh_detour_hops_total"
	FamMeshUnreachable  = "ncdsm_mesh_unreachable_total"

	// bulk data plane (internal/rmc bulk ops). Only RMCs that issued a
	// burst report samples, so runs that never go bulk snapshot
	// byte-identically to builds without the bulk plane.
	FamRMCBulkBursts  = "ncdsm_rmc_bulk_bursts_total"
	FamRMCBulkLines   = "ncdsm_rmc_bulk_lines_total"
	FamRMCBulkFrames  = "ncdsm_rmc_bulk_frames_total"
	FamRMCBulkCopies  = "ncdsm_rmc_bulk_copies_total"
	FamRMCBulkLatency = "ncdsm_rmc_bulk_latency_seconds"

	// coherent-DSM comparator directory (internal/cohdsm). These
	// families exist only in models whose caller instrumented them (the
	// consistency lab and ablations that opt in), so output that never
	// touches the coherent comparator stays byte-identical.
	FamDirLookups       = "ncdsm_dir_lookups_total"
	FamDirInvalidations = "ncdsm_dir_invalidations_total"
	FamDirInterventions = "ncdsm_dir_interventions_total"
	FamDirWritebacks    = "ncdsm_dir_writebacks_total"
	FamDirFanout        = "ncdsm_dir_invalidation_fanout"
	// MESI-only transitions, registered only by the MESI variant.
	FamDirExclusiveGrants = "ncdsm_dir_exclusive_grants_total"
	FamDirSilentUpgrades  = "ncdsm_dir_silent_upgrades_total"

	// cluster free-memory directory (internal/memdir). Reported from
	// the first directory transaction on, so systems that never consult
	// the directory snapshot exactly as before.
	FamMemdirLookups      = "ncdsm_memdir_lookups_total"
	FamMemdirGrants       = "ncdsm_memdir_grants_total"
	FamMemdirRejections   = "ncdsm_memdir_rejections_total"
	FamMemdirGrantedBytes = "ncdsm_memdir_granted_bytes"
)

// NodeView is the per-node rollup the public API exposes: one row per
// simulated node with the counters most relevant to the paper's
// evaluation (RMC traffic, cache behaviour, DRAM row locality, op mix).
type NodeView struct {
	Node              int     `json:"node"`
	RMCRequests       uint64  `json:"rmc_requests"`
	RMCRetries        uint64  `json:"rmc_retries"`
	RMCForwarded      uint64  `json:"rmc_forwarded"`
	RMCAborted        uint64  `json:"rmc_aborted"`
	RMCClientUtil     float64 `json:"rmc_client_utilization"`
	CacheAccesses     uint64  `json:"cache_accesses"`
	CacheHits         uint64  `json:"cache_hits"`
	CacheMisses       uint64  `json:"cache_misses"`
	CacheFlushedDirty uint64  `json:"cache_flushed_dirty"`
	DRAMReads         uint64  `json:"dram_reads"`
	DRAMWrites        uint64  `json:"dram_writes"`
	DRAMRowHits       uint64  `json:"dram_row_hits"`
	DRAMRowConflicts  uint64  `json:"dram_row_conflicts"`
	LocalOps          uint64  `json:"local_ops"`
	RemoteOps         uint64  `json:"remote_ops"`
}

// LinkView is one directed fabric link's traffic.
type LinkView struct {
	From   int    `json:"from"`
	To     int    `json:"to"`
	Class  string `json:"class"` // "mesh" or "express"
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
}

// Nodes extracts per-node rollups from the snapshot, sorted by node id.
func (s Snapshot) Nodes() []NodeView {
	byNode := make(map[int]*NodeView)
	get := func(label string) *NodeView {
		id, err := strconv.Atoi(label)
		if err != nil {
			return nil
		}
		v, ok := byNode[id]
		if !ok {
			v = &NodeView{Node: id}
			byNode[id] = v
		}
		return v
	}
	accumulate := func(name string, add func(v *NodeView, x float64)) {
		f := s.Family(name)
		if f == nil {
			return
		}
		for _, sm := range f.Samples {
			if v := get(sm.Labels.Get("node")); v != nil {
				add(v, sm.Value)
			}
		}
	}
	accumulate(FamRMCRequests, func(v *NodeView, x float64) { v.RMCRequests += uint64(x) })
	accumulate(FamRMCRetries, func(v *NodeView, x float64) { v.RMCRetries += uint64(x) })
	accumulate(FamRMCForwarded, func(v *NodeView, x float64) { v.RMCForwarded += uint64(x) })
	accumulate(FamRMCAborted, func(v *NodeView, x float64) { v.RMCAborted += uint64(x) })
	accumulate(FamRMCClientUtil, func(v *NodeView, x float64) { v.RMCClientUtil += x })
	accumulate(FamCacheAccesses, func(v *NodeView, x float64) { v.CacheAccesses += uint64(x) })
	accumulate(FamCacheHits, func(v *NodeView, x float64) { v.CacheHits += uint64(x) })
	accumulate(FamCacheMisses, func(v *NodeView, x float64) { v.CacheMisses += uint64(x) })
	accumulate(FamCacheFlushedDirty, func(v *NodeView, x float64) { v.CacheFlushedDirty += uint64(x) })
	accumulate(FamDRAMReads, func(v *NodeView, x float64) { v.DRAMReads += uint64(x) })
	accumulate(FamDRAMWrites, func(v *NodeView, x float64) { v.DRAMWrites += uint64(x) })
	accumulate(FamDRAMRowHits, func(v *NodeView, x float64) { v.DRAMRowHits += uint64(x) })
	accumulate(FamDRAMRowConflicts, func(v *NodeView, x float64) { v.DRAMRowConflicts += uint64(x) })
	accumulate(FamNodeLocalOps, func(v *NodeView, x float64) { v.LocalOps += uint64(x) })
	accumulate(FamNodeRemoteOps, func(v *NodeView, x float64) { v.RemoteOps += uint64(x) })

	ids := make([]int, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]NodeView, 0, len(ids))
	for _, id := range ids {
		out = append(out, *byNode[id])
	}
	return out
}

// Links extracts directed link traffic, sorted by (class, from, to).
func (s Snapshot) Links() []LinkView {
	type key struct {
		from, to int
		class    string
	}
	byLink := make(map[key]*LinkView)
	collect := func(name string, add func(v *LinkView, x float64)) {
		f := s.Family(name)
		if f == nil {
			return
		}
		for _, sm := range f.Samples {
			from, err1 := strconv.Atoi(sm.Labels.Get("from"))
			to, err2 := strconv.Atoi(sm.Labels.Get("to"))
			if err1 != nil || err2 != nil {
				continue
			}
			class := sm.Labels.Get("class")
			if class == "" {
				class = "mesh"
			}
			k := key{from, to, class}
			v, ok := byLink[k]
			if !ok {
				v = &LinkView{From: from, To: to, Class: class}
				byLink[k] = v
			}
			add(v, sm.Value)
		}
	}
	collect(FamMeshLinkFrames, func(v *LinkView, x float64) { v.Frames += uint64(x) })
	collect(FamMeshLinkBytes, func(v *LinkView, x float64) { v.Bytes += uint64(x) })

	keys := make([]key, 0, len(byLink))
	for k := range byLink {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.class != b.class {
			return a.class < b.class
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	out := make([]LinkView, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byLink[k])
	}
	return out
}
