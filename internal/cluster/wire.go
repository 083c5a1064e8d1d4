package cluster

import "repro/internal/serve"

// ClusterStatus is the wire form of GET /v1/cluster/status: one row per
// shard plus the coordinator's own queue state. `p4wn cluster status`
// renders it as the shard table.
type ClusterStatus struct {
	Draining bool `json:"draining"`
	// Pending is the coordinator-side dispatch backlog (jobs not yet
	// forwarded to any shard).
	Pending int `json:"pending"`
	// Jobs is how many jobs the coordinator currently tracks.
	Jobs    int                  `json:"jobs"`
	Shards  []ShardStatus        `json:"shards"`
	Tenants []serve.TenantStatus `json:"tenants,omitempty"`
	// CacheResident/CacheHits describe the coordinator's hot-result LRU.
	CacheResident int   `json:"cache_resident"`
	CacheHits     int64 `json:"cache_hits"`
}

// ShardStatus is one worker's row in the cluster status table.
type ShardStatus struct {
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	// Ready is alive and not draining: eligible for new forwards.
	Ready bool `json:"ready"`
	// QueueDepth/Running come from the shard's last /v1/stats heartbeat.
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	JobWorkers int `json:"job_workers"`
	// Dispatched is how many jobs this coordinator currently has in flight
	// on the shard (its own view, not the heartbeat's).
	Dispatched int `json:"dispatched"`
	// Forwards/Steals/RemoteHits/Retries are cumulative per-shard counters:
	// jobs routed here, jobs diverted here off an overloaded owner, results
	// answered from this shard's store without an engine run, and jobs
	// re-routed away after this shard failed.
	Forwards   int64  `json:"forwards"`
	Steals     int64  `json:"steals"`
	RemoteHits int64  `json:"remote_hits"`
	Retries    int64  `json:"retries"`
	LastSeen   string `json:"last_seen,omitempty"`
}
